"""Unitary-series data: weights, fusion, sign gradings, dihedral table."""
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fischerlab import cli, virasoro
from fischerlab.virasoro import (
    SAKUMA_TABLE,
    W3_CHARGE_4_5_MODULES,
    NotInTableError,
    VirasoroError,
    canonical,
    central_charge,
    fuse,
    in_sigma_sector,
    irreducibles,
    lookup_by_inner_product,
    lookup_by_type,
    sigma_sector,
    sigma_sign,
    tau_sign,
    weight,
    weight_exists,
    weights,
)

F = Fraction


class TestCentralCharge:
    def test_first_values(self):
        assert central_charge(1) == F(1, 2)
        assert central_charge(2) == F(7, 10)
        assert central_charge(3) == F(4, 5)
        assert central_charge(4) == F(6, 7)

    def test_monotone_below_one(self):
        values = [central_charge(m) for m in range(1, 30)]
        assert all(a < b < 1 for a, b in zip(values, values[1:]))

    def test_bad_index(self):
        with pytest.raises(VirasoroError):
            central_charge(0)


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("query", [
    central_charge, irreducibles, weights, sigma_sector,
    lambda m: weight_exists(m, 0),
    lambda m: canonical(m, 1, 1),
    lambda m: weight(m, 1, 1),
    lambda m: fuse(m, (1, 1), (1, 1)),
    lambda m: tau_sign(m, (1, 1)),
    lambda m: in_sigma_sector(m, (1, 1)),
    lambda m: sigma_sign(m, (1, 1)),
], ids=[
    "central_charge", "irreducibles", "weights", "sigma_sector", "weight_exists",
    "canonical", "weight", "fuse", "tau_sign", "in_sigma_sector", "sigma_sign",
])
def test_every_query_rejects_a_series_index_below_1(query, m):
    # A negative m gives no empty answer: irreducibles, and so weights and
    # weight_exists, check the index as every other query does.
    with pytest.raises(VirasoroError, match=rf"^series index must be >= 1, got {m}$"):
        query(m)


class TestWeights:
    def test_m1_ising(self):
        assert weights(1) == [F(0), F(1, 16), F(1, 2)]

    def test_m2_grid(self):
        got = weights(2)
        assert got == [F(0), F(3, 80), F(1, 10), F(7, 16), F(3, 5), F(3, 2)]
        assert F(7, 10) not in got

    def test_m3_contains_three_state_potts_weights(self):
        got = set(weights(3))
        assert {F(0), F(3), F(2, 5), F(7, 5), F(2, 3), F(1, 15)} <= got

    def test_label_count(self):
        for m in range(1, 8):
            assert len(irreducibles(m)) == (m + 1) * (m + 2) // 2

    def test_weight_symmetry(self):
        for m in range(1, 6):
            for r in range(1, m + 2):
                for s in range(1, m + 3):
                    assert weight(m, r, s) == weight(m, m + 2 - r, m + 3 - s)

    def test_weight_exists(self):
        assert weight_exists(1, F(1, 16))
        assert not weight_exists(2, F(7, 10))

    def test_out_of_range(self):
        with pytest.raises(VirasoroError):
            weight(1, 3, 1)


label_strategy = st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.just(m), st.integers(1, m + 1), st.integers(1, m + 2)
    )
)


class TestCanonical:
    def test_examples(self):
        assert canonical(1, 2, 3) == (1, 1)
        assert canonical(2, 2, 2) == (2, 2)

    @given(label_strategy)
    def test_idempotent(self, mrs):
        m, r, s = mrs
        assert canonical(m, *canonical(m, r, s)) == canonical(m, r, s)

    @given(label_strategy)
    def test_orbit_collapse(self, mrs):
        m, r, s = mrs
        assert canonical(m, r, s) == canonical(m, m + 2 - r, m + 3 - s)


class TestFusion:
    def test_ising_rules(self):
        # with h(1,1)=0, h(1,2)=1/16, h(1,3)=1/2 at m=1
        vac, sigma, eps = (1, 1), (1, 2), (1, 3)
        assert fuse(1, sigma, sigma) == (vac, eps)
        assert fuse(1, sigma, eps) == (sigma,)
        assert fuse(1, eps, eps) == (vac,)

    def test_unital(self):
        for m in range(1, 6):
            for lab in irreducibles(m):
                assert fuse(m, (1, 1), lab) == (lab,)

    @given(st.integers(1, 6), st.data())
    def test_commutative(self, m, data):
        left = (data.draw(st.integers(1, m + 1)), data.draw(st.integers(1, m + 2)))
        right = (data.draw(st.integers(1, m + 1)), data.draw(st.integers(1, m + 2)))
        assert fuse(m, left, right) == fuse(m, right, left)

    def test_closed_on_canonical_labels(self):
        for m in range(1, 5):
            labs = set(irreducibles(m))
            for a in labs:
                for b in labs:
                    assert set(fuse(m, a, b)) <= labs


class TestTauGrading:
    def test_m2_golden_signs(self):
        golden = {
            (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
            (2, 1): -1, (2, 2): -1,
        }
        for lab, sign in golden.items():
            assert tau_sign(2, lab) == sign

    def test_multiplicative_exhaustive(self):
        for m in range(1, 7):
            labs = irreducibles(m)
            for a in labs:
                for b in labs:
                    expect = tau_sign(m, a) * tau_sign(m, b)
                    for c in fuse(m, a, b):
                        assert tau_sign(m, c) == expect


class TestSigmaSector:
    def test_m1(self):
        assert sigma_sector(1) == [(1, 1), (1, 3)]
        assert sigma_sign(1, (1, 1)) == 1
        assert sigma_sign(1, (1, 3)) == -1

    def test_closed_and_multiplicative(self):
        for m in range(1, 7):
            sector = sigma_sector(m)
            for a in sector:
                for b in sector:
                    out = fuse(m, a, b)
                    assert all(in_sigma_sector(m, c) for c in out)
                    expect = sigma_sign(m, a) * sigma_sign(m, b)
                    assert all(sigma_sign(m, c) == expect for c in out)

    def test_outside_sector_rejected(self):
        with pytest.raises(VirasoroError):
            sigma_sign(2, (2, 1))

    def test_membership_and_sign_match_the_listed_sector(self):
        # The listed sector decides membership; the sign is read off the
        # orbit member on the first row (even m) or first column (odd m).
        for m in range(1, 41):
            sector = set(sigma_sector(m))
            for r in range(1, m + 2):
                for s in range(1, m + 3):
                    label = (r, s)
                    inside = canonical(m, r, s) in sector
                    assert in_sigma_sector(m, label) == inside, (m, label)
                    if not inside:
                        with pytest.raises(VirasoroError) as info:
                            sigma_sign(m, label)
                        assert str(info.value) == (
                            f"label {label} is outside the sigma sector P_{m}"
                        )
                        continue
                    orbit = (label, (m + 2 - r, m + 3 - s))
                    if m % 2 == 0:
                        k = next(b for a, b in orbit if a == 1)
                    else:
                        k = next(a for a, b in orbit if b == 1)
                    assert sigma_sign(m, label) == (-1) ** (k + 1), (m, label)

    def test_membership_does_not_list_the_sector(self, monkeypatch, capsys):
        def listing(m):
            raise AssertionError(f"listed P_{m}")

        monkeypatch.setattr(virasoro, "sigma_sector", listing)
        assert in_sigma_sector(10**12, (1, 3))
        assert sigma_sign(10**12, (1, 3)) == 1
        assert sigma_sign(10**12 + 1, (2, 1)) == -1
        code = cli.main(
            ["fusion", "--m", "1000000", "--left", "1,1", "--right", "1,1", "--json"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["product"]
        assert row == {"r": 1, "s": 1, "weight": "0/1", "tau_sign": 1,
                       "in_sigma_sector": True, "sigma_sign": 1}


class TestSakumaTable:
    def test_nine_rows(self):
        assert len(SAKUMA_TABLE) == 9
        assert [r.type_tag for r in SAKUMA_TABLE] == [
            "1A", "2A", "3A", "4A", "5A", "6A", "4B", "2B", "3C",
        ]

    def test_inner_products(self):
        assert lookup_by_type("3A").inner_product == F(13, 1024)
        assert lookup_by_type("2A").inner_product == F(1, 32)
        assert lookup_by_type("2B").inner_product == 0
        assert lookup_by_type("1A").inner_product == F(1, 4)

    def test_record_repr_hash_and_immutability(self):
        rec = lookup_by_type("3A")
        assert repr(rec) == (
            "SakumaRecord(type_tag='3A', max_tau_order=3, inner_product_times_1024=13, "
            "griess_dim=4, ising_count=3, miyamoto_kind='tau')"
        )
        assert hash(rec) == hash(("3A", 3, 13, 4, 3, "tau"))
        assert rec == lookup_by_type("3a") and rec != lookup_by_type("3C")
        with pytest.raises(AttributeError):
            rec.griess_dim = 5
        with pytest.raises(AttributeError):
            rec.note = "extra"

    def test_case_insensitive(self):
        assert lookup_by_type("6a").type_tag == "6A"

    def test_unknown_tag(self):
        with pytest.raises(NotInTableError):
            lookup_by_type("7A")

    def test_ambiguous_inner_product(self):
        hits = lookup_by_inner_product(F(4, 1024))
        assert {r.type_tag for r in hits} == {"4B", "3C"}

    def test_unique_lookup(self):
        (hit,) = lookup_by_inner_product(F(5, 1024))
        assert hit.type_tag == "6A"

    def test_missing_value(self):
        with pytest.raises(NotInTableError):
            lookup_by_inner_product(F(1, 3))

    def test_max_order_matches_tag(self):
        for rec in SAKUMA_TABLE:
            assert rec.max_tau_order == int(rec.type_tag[:-1])


@pytest.fixture(scope="module")
def golden():
    import json
    from pathlib import Path

    path = Path(__file__).parent / "fixtures" / "virasoro_golden.json"
    return json.loads(path.read_text())


class TestGoldenTables:
    """Frozen m <= 4 data: weights, tau signs, sigma sector, fusion table."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_charges_weights_and_signs(self, golden, m):
        data = golden[str(m)]
        c = central_charge(m)
        assert f"{c.numerator}/{c.denominator}" == data["central_charge"]
        assert [(row["r"], row["s"]) for row in data["labels"]] == irreducibles(m)
        for row in data["labels"]:
            h = weight(m, row["r"], row["s"])
            assert f"{h.numerator}/{h.denominator}" == row["weight"]
            assert tau_sign(m, (row["r"], row["s"])) == row["tau_sign"]
        assert [(row["r"], row["s"]) for row in data["sigma_sector"]] == sigma_sector(m)
        for row in data["sigma_sector"]:
            assert sigma_sign(m, (row["r"], row["s"])) == row["sigma_sign"]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_fusion_table(self, golden, m):
        data = golden[str(m)]
        seen = 0
        for key, products in data["fusion"].items():
            left, right = key.split("|")
            a = tuple(int(x) for x in left.split(","))
            b = tuple(int(x) for x in right.split(","))
            assert fuse(m, a, b) == tuple(tuple(p) for p in products)
            seen += 1
        n = len(irreducibles(m))
        assert seen == n * (n + 1) // 2


class TestW3Modules:
    def test_six_modules_with_cube_root_grading(self):
        assert len(W3_CHARGE_4_5_MODULES) == 6
        all_weights = {w for mod in W3_CHARGE_4_5_MODULES for w in mod["weights"]}
        assert all_weights == {F(0), F(3), F(2, 5), F(7, 5), F(2, 3), F(1, 15)}
        # weights of the graded sectors exist in the m = 3 grid
        for w in all_weights:
            assert weight_exists(3, w)
        assert sorted(mod["zeta_power"] for mod in W3_CHARGE_4_5_MODULES) == [
            -1, -1, 0, 0, 1, 1,
        ]
