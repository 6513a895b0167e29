"""The result records are named tuples with the reprs, fields and copies of before."""

import copy
import json
import pickle

import numpy as np
import pytest
from conftest import run_ok

from pauli_simplex.channels import MixtureWeights
from pauli_simplex.choi import rhp_witness
from pauli_simplex.divisibility import classify
from pauli_simplex.generator import three_mix_rates
from pauli_simplex.geometry import MeasureReport, monte_carlo_measures, total_measures
from pauli_simplex.oracles import ChoiMatrix, choi_matrix

W = MixtureWeights(0.45, 0.1, 0.45)

#: one record of each kind, built as the commands build them
RECORDS = {
    "MixtureWeights": W,
    "DecayRates": three_mix_rates(W, 0.3),
    "RegionLabel": classify(W),
    "MeasureReport": monte_carlo_measures(1000, 1),
    "WitnessReport": rhp_witness(0.1, 0.45, 0.4),
    "ChoiMatrix": choi_matrix(0.5, 0.25, 0.125),
}

#: a sum off by float error whose renormalized values, renormalized once
#: more, would move in their last bits
DRIFTED = (0.37543827578114314, 0.3252527143396371, 0.2993090098792199)


def bits(values):
    return [float(v).hex() for v in values]


class TestRecords:
    @pytest.mark.parametrize(
        "name, text",
        [
            ("MixtureWeights", "MixtureWeights(a=0.45, b=0.1, c=0.45)"),
            ("DecayRates",
             "DecayRates(gx=1.956521739130435, gy=-0.31473069435431533, gz=1.9565217391304348)"),
            ("RegionLabel", "RegionLabel(tag='NONMARKOVIAN', region='Y', "
                            "limit_rates=(9.0, -6.555555555555555, 9.0))"),
            ("MeasureReport", "MeasureReport(region_x=0.276, region_y=0.274, region_z=0.327, "
                              "total=0.877, markovian=0.123, error=0.010386096475577337)"),
            ("WitnessReport", "WitnessReport(ratios=(0.5, 0.9891304347826088, 0.6785714285714286), "
                              "eigenvalues=(-0.08385093167701868, 0.09472049689440987, "
                              "0.4052795031055901, 1.5838509316770186), verdict='NONMARKOVIAN')"),
        ],
    )
    def test_repr_is_unchanged(self, name, text):
        assert repr(RECORDS[name]) == text

    def test_choi_matrix_repr_shows_its_array(self):
        m = RECORDS["ChoiMatrix"]
        assert repr(m) == f"ChoiMatrix(matrix={m.matrix!r})"

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned(self, name):
        record = RECORDS[name]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0

    def test_records_unpack_and_equal_plain_tuples(self):
        a, b, c = W
        assert (a, b, c) == W == (0.45, 0.1, 0.45)
        assert RECORDS["DecayRates"].as_tuple() == tuple(RECORDS["DecayRates"])
        assert RECORDS["MeasureReport"].regions() == tuple(RECORDS["MeasureReport"])[:3]

    @pytest.mark.parametrize("method", [["quad"], ["mc", "--samples", "1000"]], ids=["quad", "mc"])
    def test_asdict_keys_follow_the_measure_record(self, method):
        keys = list(json.loads(run_ok(["measure", "--method", *method, "--json"]))["results"])
        assert keys == ["region_x", "region_y", "region_z", "total", "markovian", "error"]
        assert keys == list(total_measures()._asdict()) == list(MeasureReport._fields)

    def test_copies_keep_renormalized_weights(self):
        w = MixtureWeights(*DRIFTED)
        assert bits(MixtureWeights(*w)) != bits(w)  # so the case below can fail
        copies = [copy.copy(w), copy.deepcopy(w)]
        copies += [pickle.loads(pickle.dumps(w, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is MixtureWeights
            assert bits(other) == bits(w)

    def test_weights_are_validated_by_keyword_too(self):
        assert MixtureWeights(a=0.45, b=0.1, c=0.45) == W
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureWeights(a=-0.1, b=0.6, c=0.5)

    def test_replace_validates_the_new_weights(self):
        assert W._replace(a=0.5, c=0.4) == (0.5, 0.1, 0.4)
        assert type(W._replace(b=0.1)) is MixtureWeights
        with pytest.raises(ValueError, match="sum"):
            W._replace(a=2.0)
        with pytest.raises(ValueError, match="unexpected field names"):
            W._replace(d=0.0)

    def test_unpickled_choi_matrix_is_a_read_only_copy(self):
        m = RECORDS["ChoiMatrix"]
        other = pickle.loads(pickle.dumps(m))
        assert type(other) is ChoiMatrix
        assert np.array_equal(other.matrix, m.matrix)
        assert not other.matrix.flags.writeable
