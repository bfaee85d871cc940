import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fermigauss.ensembles import RngSpec
from fermigauss.fock import FockOperator
from fermigauss.reports import _encode, estimator_to_criterion, fock_to_doc
from fermigauss.verify import verify_nc_failure

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


def stock(doc) -> str:
    """The standard library's indent=2 encoder, numpy values through their tolist()."""
    return json.dumps(doc, indent=2, default=lambda obj: obj.tolist())


class TestEncode:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(docs)
    @example({"entries": np.array([[-0.0, 5e-324], [1e308, 1.0]]), "se": np.zeros((3, 0)), "none": np.empty(0)})
    @example([np.array([0.5, math.nan, -math.inf]), (), {}, [[]], {"": ()}])
    def test_matches_the_stock_indent_2_encoder(self, doc):
        assert _encode(doc, 0) == stock(doc)

    def test_rng_spec_is_a_seed_and_stream_object(self):
        doc = {"seed": RngSpec(7, 3), "none": None}
        assert _encode(doc, 0) == stock({"seed": {"seed": 7, "stream": 3}, "none": None})

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
    rep = verify_nc_failure(2, 1.0, 20)
    crit = estimator_to_criterion("even-weight residual exceeds the oracle floor", rep)
    assert crit["tolerance_or_se"] == {"kind": "floor", "value": rep.details["failure_floor"]}
    del rep.details["failure_floor"]
    with pytest.raises(KeyError, match="tolerance"):  # no default tolerance is made up
        estimator_to_criterion("no bound", rep)
