"""The record classes of the runtime modules: construction by position and
by keyword, validation, field equality, pickling and repr."""

import pickle
import re

import numpy as np
import pytest

from epe import gaussian, jc, qubit, sampling
from epe.errors import DomainError

_SUPPORT = dict(n_max=2, n1=[0, 2], n2=[2, 0], amps=[0.6, 0.8])

# each record class with one valid set of fields, in parameter order
RECORDS = [
    (gaussian.StandardFormCM, dict(a=2.0, b=3.0, c_plus=1.0, c_minus=-0.5)),
    (jc.NPhoton, dict(n=2)),
    (jc.EntangledCoherent, dict(alpha=0.5 + 0.25j)),
    (jc.TwoModeSqueezed, dict(gamma=0.3)),
    (jc.FieldSupport, _SUPPORT),
    (jc.TransferResult, dict(lambda_t=0.5, qubit_state=np.eye(4) / 4.0, concurrence=0.0,
                             purity=0.25, input_energy=1.0, input_entropy=0.0,
                             input_state=jc.FieldSupport(**_SUPPORT))),
    (qubit.LocalUnitaryParams, dict(theta1=0.1, theta2=0.2, axis1=(1.0, 0.0, 0.0),
                                    axis2=(0.0, 0.0, 1.0))),
    (sampling.SamplerConfig, dict(seed=7, count=10, system="gaussian", rank_filter=None,
                                  energy_window=(1.0, 3.0), measure="negativity")),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def _same(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields):
    for record in (cls(*fields.values()), cls(**fields)):
        assert type(record) is cls
        for name, value in fields.items():
            assert _same(getattr(record, name), value), name


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, fields):
    text = repr(cls(**fields))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    at = [text.find(f"{name}=") for name in fields]
    assert -1 not in at and at == sorted(at)


def test_single_photon_is_n_photon_one():
    spec = jc.SinglePhoton()
    assert isinstance(spec, jc.NPhoton) and spec.n == 1
    assert repr(spec) == "SinglePhoton()"
    for args, kwargs in (((), {"n": 2}), ((2,), {})):
        with pytest.raises(TypeError):
            jc.SinglePhoton(*args, **kwargs)


@pytest.mark.parametrize("build, message", [
    (lambda: jc.NPhoton(0), "photon number must be a positive integer"),
    (lambda: jc.EntangledCoherent("1"), "coherent amplitude alpha must be a number, got '1'"),
    (lambda: jc.TwoModeSqueezed(1.0), "squeezing parameter gamma must lie in [0, 1)"),
    (lambda: qubit.LocalUnitaryParams(0.0, 0.0, (1, 0, 0), (0, 0, 1.1)),
     "axis2 must be a unit 3-vector"),
    (lambda: gaussian.StandardFormCM(0.5, 1, 0, 0), "diagonal parameters a, b must be >= 1"),
    (lambda: jc.FieldSupport(2, [2, 0], [0, 2], [0.6, 0.8]),
     "support entries must be distinct, row-major and within n_max"),
], ids=["NPhoton", "EntangledCoherent", "TwoModeSqueezed", "LocalUnitaryParams",
        "StandardFormCM", "FieldSupport"])
def test_invalid_fields_raise_domain_error(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_standard_form_field_equality():
    sf = gaussian.StandardFormCM(2.0, 3.0, 1.0, -0.5)
    assert sf == gaussian.StandardFormCM(a=2, b=3, c_plus=1, c_minus=-0.5)
    assert sf != gaussian.StandardFormCM(2.0, 3.0, 1.0, 0.5)
    assert sf != (2.0, 3.0, 1.0, -0.5)


@pytest.mark.parametrize("fields", [
    dict(seed=11, count=9),
    dict(seed=11, count=9, system="gaussian", energy_window=(1.0, 3.0), measure="negativity"),
], ids=["qubit", "gaussian"])
def test_sampler_config_survives_pickling(fields):
    # pool workers receive the run's config pickled
    cfg = sampling.SamplerConfig(**fields)
    back = pickle.loads(pickle.dumps(cfg))
    assert type(back) is sampling.SamplerConfig and repr(back) == repr(cfg)
    for got, want in zip(sampling.records_chunk(back, 2, 5), sampling.records_chunk(cfg, 2, 5)):
        assert np.array_equal(got, want)
