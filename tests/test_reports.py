import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fermigauss.ensembles import RngSpec
from fermigauss.fock import FockOperator
from fermigauss.reports import _encode, build_report, estimator_to_criterion, fock_to_doc
from fermigauss.verify import verify_nc_failure, verify_resolution_mc

FINITE_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-5, 1e16)

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EDGES)
floats = st.floats() | finite | st.sampled_from((math.nan, math.inf, -math.inf))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | floats
    | st.text()
    | st.sampled_from(("", 'quote " backslash \\ tab \t newline \n', "\x00\x1f\x7f", "β = 0.3 µ ☃ 𝄞"))
    | floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)
arrays = (
    hnp.arrays(np.float64, shapes, elements=finite)
    | hnp.arrays(np.float64, shapes, elements=floats)
    | hnp.arrays(np.int64, shapes)
)
docs = st.recursive(
    scalars | arrays,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


def repeats(n: int) -> np.ndarray:
    """n floats, most of them repeated, some negated, with every FINITE_EDGES value."""
    gen = RngSpec(9).generator()
    pool = np.concatenate([FINITE_EDGES, gen.normal(size=12), 1e-300 * gen.normal(size=4)])
    return gen.choice(pool, size=n) * gen.choice((-1.0, 1.0), size=n)


class Mode(enum.IntEnum):
    TWO = 2


class Real(float):
    def __repr__(self):
        return "not json's"


class Text(str):
    def __str__(self):
        return "not json's"


#: Scalars and containers whose encodings differ in small ways: signed zero,
#: subnormal and exponent floats, non-finite floats, bool against int, int and
#: float and str subclasses, numpy scalars, escapes and non-ASCII text in
#: values and keys, and empty containers nested in others.
EDGE_TABLE = (
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 1.5e300, 0.1],
    [math.nan, math.inf, -math.inf, {"nan": math.nan}],
    [True, 1, False, 0, {"true": True, "one": 1, "false": False, "zero": 0}],
    [Mode.TWO, {"mode": Mode.TWO}, Real(0.5), Text("text")],
    [np.float64(-0.0), np.float64(1e16), np.float64(math.nan), np.int64(-(2**63)), np.int64(7), np.bool_(True),
     np.bool_(False)],
    ["β = 0.3 µ ☃ 𝄞", "\x00\x1f\x7f", 'quote " backslash \\ tab \t newline \n', "\u2028\ud800", ""],
    {"β = 0.3 µ ☃ 𝄞": 1, "\x00\x1f\x7f": "\x7f", 'quote " \\ \t \n': [], "": {}},
    [[], {}, [[]], [{}], {"empty": {}, "list": [[], [[]]], "tuple": ()}, ()],
    {"nested": {"deeper": {"deepest": [1, 2.5, "three", None, True]}}},
    [None, 2**70, -(2**70), 10**15, 1e22, 123456789.0],
)


def stock(doc) -> str:
    """The standard library's indent=2 encoder, numpy values through their tolist()."""
    return json.dumps(doc, indent=2, default=lambda obj: obj.tolist())


class TestEncode:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(docs)
    @example({"entries": np.array([[-0.0, 5e-324], [1e308, 1.0]]), "se": np.zeros((3, 0)), "none": np.empty(0)})
    @example([np.array([0.5, math.nan, -math.inf]), (), {}, [[]], {"": ()}])
    @example([np.array([0.0, -0.0, 0.0, -0.0]), np.array([[5e-324, -5e-324], [-5e-324, 5e-324], [1e308, -1e308]])])
    @example({"pairs": repeats(600).reshape(300, 2), "flat": repeats(300), "square": repeats(400).reshape(20, 20)})
    def test_matches_the_stock_indent_2_encoder(self, doc):
        assert _encode(doc, 0) == stock(doc)

    @pytest.mark.parametrize("shape", [(500,), (250, 2), (20, 20), (1, 300), (300, 1)])
    def test_repeated_and_negated_floats_match_the_stock_encoder(self, shape):
        arr = repeats(math.prod(shape)).reshape(shape)
        assert len(np.unique(arr.view(np.uint64))) < arr.size / 4
        for doc in (arr, [arr, {"nested": arr}], {"strided": arr.T, "every_other": arr.ravel()[::2]}):
            assert _encode(doc, 0) == stock(doc)

    def test_full_monte_carlo_report_at_six_modes_matches_the_stock_encoder(self):
        rep = verify_resolution_mc(6, 1.0, 64, RngSpec(5))
        doc = build_report("resolution", {"modes": 6}, RngSpec(5), [estimator_to_criterion("resolution", rep)])
        assert _encode(doc, 0) == stock(doc | {"seed": {"seed": 5, "stream": 0}})

    def test_rng_spec_is_a_seed_and_stream_object(self):
        doc = {"seed": RngSpec(7, 3), "none": None}
        assert _encode(doc, 0) == stock({"seed": {"seed": 7, "stream": 3}, "none": None})

    @pytest.mark.parametrize("obj", EDGE_TABLE, ids=range(len(EDGE_TABLE)))
    def test_edge_values_match_the_stock_encoder(self, obj, monkeypatch):
        dumps, fallbacks = json.dumps, []
        monkeypatch.setattr(json, "dumps", lambda o, **kw: fallbacks.append(o) or dumps(o, **kw))
        text = _encode(obj, 0)
        monkeypatch.undo()
        assert text == stock(obj)
        # strings, keys and exact bool, int and finite float are written without json.dumps; the rest go through it
        for value in fallbacks:
            assert not isinstance(value, (str, dict, list, tuple, np.ndarray))
            assert type(value) not in (bool, int, float) or not math.isfinite(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, Mode.TWO, Real(0.5)], ids=repr)
    def test_non_finite_floats_and_subclasses_go_through_json(self, value, monkeypatch):
        dumps, fallbacks = json.dumps, []
        monkeypatch.setattr(json, "dumps", lambda o, **kw: fallbacks.append(o) or dumps(o, **kw))
        _encode({"value": [value]}, 0)
        assert len(fallbacks) == 1 and fallbacks[0] is value

    def test_non_string_key_is_rejected(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            _encode({1: 0.5}, 0)


def test_fock_entries_are_row_major_re_im_pairs():
    mat = np.array([[0.25, -0.0 + 1e-17j], [0.0 - 1e-17j, 0.75]])
    doc = json.loads(_encode(fock_to_doc(FockOperator(1, mat)), 0))
    want = [[z.real, z.imag] for z in mat.ravel()]
    assert doc["entries"] == want
    assert [math.copysign(1.0, x) for pair in doc["entries"] for x in pair] == [
        math.copysign(1.0, x) for pair in want for x in pair
    ]


def test_failure_report_states_its_floor():
    # from two modes the floor; at one mode, which has none, the target tolerance
    rep = verify_nc_failure(2, 1.0, 20)
    crit = estimator_to_criterion("even-weight mean reaches its exact target", rep)
    assert crit["tolerance_or_se"] == {"kind": "floor", "value": rep.details["failure_floor"]}
    crit = estimator_to_criterion("even-weight mean reaches its exact target", verify_nc_failure(1, 1.0, 20))
    assert crit["tolerance_or_se"] == {"kind": "tolerance", "value": 1e-10}
    del rep.details["failure_floor"], rep.details["tolerance"]
    with pytest.raises(KeyError, match="tolerance"):  # no default tolerance is made up
        estimator_to_criterion("no bound", rep)


def test_monte_carlo_failure_report_states_its_standard_errors():
    rep = verify_nc_failure(3, 1.0, n_samples=400, rng=RngSpec(3))
    crit = estimator_to_criterion("even-weight mean reaches its exact target", rep)
    assert crit["tolerance_or_se"]["kind"] == "standard_error"
    assert np.array_equal(crit["tolerance_or_se"]["matrix"], rep.per_entry_se)
