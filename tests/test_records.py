"""The package's records: frozen, compared and hashed by their fields, with their defaults."""

import numpy as np
import pytest

import shiftrules
from shiftrules import (
    EquidistantStructure,
    FourierModel,
    FrequencySet,
    NoiseSpec,
    OptimizationConfig,
    RegularizationConfig,
    ShiftRule,
    Spectrum,
    StructureKind,
    build_system,
    frequency_differences,
    perturbation,
    regularization,
    rule,
    spectrum,
    synthesis,
    variance,
)


def _records():
    """One instance of each of the package's 16 record classes."""
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    system = build_system(freq, np.linspace(-3.0, 3.0, freq.m))
    es = EquidistantStructure(3, 1.0)
    return [
        Spectrum((0.0, 1.0, 2.5), "s7"),
        FrequencySet((1.0, 2.5), (1, 2)),
        spectrum.StructureClass(StructureKind.PERTURBED_EQUIDISTANT, delta=1.0, epsilon=0.01),
        ShiftRule((0.0, 1.0), (0.5, -0.5), ((1, 1.0),), (1.0,), {"method": "direct"}),
        rule.VarianceReport(0.25, 0.5),
        FourierModel(0.5, ((1.0, 0.5, -0.2),)),
        NoiseSpec(1.0, 3),
        system,
        OptimizationConfig(1e-8, 2, 5),
        variance.build_reduced_system(freq, [0.5, 1.0, 1.5]),
        RegularizationConfig(1e-3, 0.1),
        regularization.tikhonov_solve(system, 1e-3),
        regularization.GammaSelection(1e-3, 0.1, 0.2, "bracketed"),
        es,
        perturbation.perturbation_matrices(es),
        perturbation.PerturbationBound(1.0, 2.0, 3.0),
    ]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_each_record_is_frozen_and_compares_by_its_fields():
    records = _records()
    assert len({type(r) for r in records}) == 16
    assert all(isinstance(r, shiftrules._Record) for r in records)
    for rec in records:
        name = type(rec).__name__
        values = tuple(getattr(rec, f) for f in rec._fields)
        for field in (*rec._fields, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(rec, field, 0)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        assert all(getattr(rec, f) is v for f, v in zip(rec._fields, values)), name
        twin = type(rec)(*values)  # the fields in __init__'s positional order
        assert twin == rec and not twin != rec, name
        if _hashable(values):
            assert hash(twin) == hash(rec), name
        else:
            with pytest.raises(TypeError):
                hash(rec)
        assert rec.__eq__(object()) is NotImplemented, name
        assert rec != values and rec != object(), name
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(rec._fields, values))
        assert repr(rec) == f"{name}({fields})"
    assert repr(NoiseSpec(1.0)) == "NoiseSpec(sigma=1.0, seed=0)"
    assert repr(Spectrum((0, 1))) == "Spectrum(eigenvalues=(0.0, 1.0), label=None)"
    assert NoiseSpec(1.0) != NoiseSpec(2.0)
    assert rule.VarianceReport(2, 1.0) != EquidistantStructure(2, 1.0)  # equal fields, another class


def test_record_defaults():
    c = OptimizationConfig()
    assert (c.tol, c.multistarts, c.seed) == (1e-9, 8, 0)
    r = RegularizationConfig()
    assert (r.gamma, r.data_error) == (None, 0.0)
    assert NoiseSpec(1.0).seed == 0
    assert FourierModel(0.0).terms == ()
    assert OptimizationConfig(seed=4) == OptimizationConfig(1e-9, 8, 4)
    assert spectrum.StructureClass(StructureKind.UNSTRUCTURED) == spectrum.StructureClass(
        StructureKind.UNSTRUCTURED, None, None)


def test_rules_built_without_diagnostics_do_not_share_a_dict():
    a = ShiftRule((0.0,), (1.0,), ((0, 1.0),), ())
    b = ShiftRule((0.0,), (1.0,), ((0, 1.0),), ())
    assert a.diagnostics == b.diagnostics == {}
    a.diagnostics["method"] = "direct"
    assert b.diagnostics == {}


def test_cached_properties_are_computed_once(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    system = build_system(freq, np.linspace(-2.0, 2.5, freq.m))
    monkeypatch.setattr(synthesis.np.linalg, "svd", counting_svd)
    first = system.svd
    assert system.svd is first and len(calls) == 1
    reduced = variance.build_reduced_system(freq, [0.5, 1.0, 1.5])
    assert reduced.cos is reduced.cos and reduced.sin is reduced.sin
