"""End-to-end acceptance checks, one test per shipped guarantee.

Every comparison here is exact integer or Fraction arithmetic; there are
no tolerances anywhere. Run with -v to get one pass/fail line per
guarantee.
"""

from math import gcd

import goldens
from seaweedspec import (
    FamilyId,
    compositions_of,
    enumerate_frobenius,
    extended_spectrum,
    extended_spectrum_matrix,
    family_extended_spectrum,
    family_spec,
    family_spectrum,
    index_gcd_maximal_parabolic,
    index_gcd_three_part,
    index_sl,
    is_log_concave,
    is_unimodal,
    orient,
    parse_seaweed,
    principal_element,
    run_unimodality_sweep,
    spectrum,
    spectrum_matrix,
    SweepJob,
    cli,
    verify_block_lemmas,
    verify_reverse_lemma,
    verify_skew_symmetry,
    verify_swap_lemma,
)

FAMILY_GRIDS = [
    (FamilyId.K1, [(k, None) for k in range(1, 41)]),
    (FamilyId.K2, [(k, None) for k in range(3, 40, 2)]),
    (FamilyId.K1K, [(k, None) for k in range(1, 26)]),
    (FamilyId.K2K, [(k, None) for k in range(1, 26, 2)]),
    (FamilyId.TWOK1_12K, [(k, None) for k in range(1, 21)]),
    (FamilyId.TWOK11, [(k, None) for k in range(1, 21)]),
    (FamilyId.K_2R, [(k, r) for k in range(1, 16) for r in range(1, 7)]),
    (FamilyId.K_2R_PLUS1, [(k, r) for k in range(1, 16) for r in range(1, 7)]),
    (FamilyId.TWOS_R1, [(None, r) for r in range(1, 16)]),
    (FamilyId.K4R, [(k, r) for k in range(1, 16, 2) for r in range(1, 6)]),
    (FamilyId.K4R_PLUS2, [(k, r) for k in range(1, 16, 2) for r in range(1, 6)]),
]

ALWAYS_LOG_CONCAVE = {
    FamilyId.K1,
    FamilyId.K2,
    FamilyId.K1K,
    FamilyId.K2K,
    FamilyId.TWOK1_12K,
    FamilyId.TWOK11,
    FamilyId.TWOS_R1,
}


def test_criterion_1_worked_examples_reproduced_exactly():
    g = parse_seaweed("2|4 / 1|2|3")
    assert spectrum(g).counts() == goldens.SPECTRUM_2_4_123
    assert extended_spectrum(g).counts() == goldens.EXTENDED_2_4_123
    assert spectrum_matrix(parse_seaweed("5|2 / 7")) == goldens.SIGMA_5_2_7
    assert extended_spectrum_matrix(parse_seaweed("3|2 / 5")) == goldens.SIGMAHAT_3_2_5


def test_criterion_2_closed_form_spectra_match_engine_on_full_grids():
    for family, points in FAMILY_GRIDS:
        for k, r in points:
            g = family_spec(family, k=k, r=r)
            assert family_spectrum(family, k=k, r=r) == spectrum(g), (
                family.value, k, r, str(g),
            )
    for k in range(1, 41):
        g = family_spec(FamilyId.K1, k=k)
        assert family_extended_spectrum(FamilyId.K1, k=k) == extended_spectrum(g)
    for k in range(3, 40, 2):
        g = family_spec(FamilyId.K2, k=k)
        assert family_extended_spectrum(FamilyId.K2, k=k) == extended_spectrum(g)


def test_criterion_3_gcd_index_formulas_match_meander_census():
    for a in range(1, 81):
        for b in range(1, 81):
            g = parse_seaweed(f"{a}|{b} / {a + b}")
            assert index_sl(g) == index_gcd_maximal_parabolic(a, b), (a, b)
    for a in range(1, 31):
        for b in range(1, 31):
            for c in range(1, 31):
                want = index_gcd_three_part(a, b, c)
                g = parse_seaweed(f"{a}|{b}|{c} / {a + b + c}")
                assert index_sl(g) == want, (a, b, c)
                d = a + b - c
                if d >= 1:
                    h = parse_seaweed(f"{a}|{b} / {c}|{d}")
                    assert index_sl(h) == want, (a, b, c, d)


def test_criterion_4_proven_identities_hold_everywhere():
    for n in range(1, 11):
        for g in enumerate_frobenius(n):
            assert verify_swap_lemma(g)
            assert verify_reverse_lemma(g)
            assert verify_skew_symmetry(g)
            diag = principal_element(g)
            assert sum(diag) == 0
            for u, v in orient(g).edges:
                assert diag[u - 1] - diag[v - 1] == 1
    for k1 in range(1, 9):
        for k2 in range(1, 9):
            if gcd(k1, k2) != 1:
                continue
            for m in range(1, 5):
                performed = verify_block_lemmas(k1, k2, m)
                assert "top_left" in performed


def test_criterion_5_exhaustive_sweep_finds_no_counterexample():
    summary = run_unimodality_sweep(SweepJob(n_min=1, n_max=10))
    assert summary["pairs"] == sum(4 ** (n - 1) for n in range(1, 11)) == 349525
    assert summary["engine_invariant_failures"] == 0
    assert summary["counterexamples"] == [], (
        "unimodality counterexamples found; reproduce each with "
        "`seaweedspec spectrum <spec>`: "
        f"{summary['counterexamples']}"
    )


def test_criterion_6_log_concavity_witnesses_are_exact():
    witnesses = [
        ("3|2|2 / 4|2|1", goldens.WITNESS_K2R),
        ("5|4|4|2 / 7|4|4", goldens.WITNESS_K4R2),
        ("8|8|8|1 / 25", goldens.WITNESS_881),
    ]
    for text, want in witnesses:
        s = spectrum(parse_seaweed(text))
        assert s.counts() == want, text
        assert is_unimodal(s), text
        assert not is_log_concave(s), text
    # the big witness breaks log-concavity at the 5, 8, 13 run
    big = spectrum(parse_seaweed("8|8|8|1 / 25"))
    assert (big.multiplicity(-6), big.multiplicity(-5), big.multiplicity(-4)) == (5, 8, 13)
    assert 8 * 8 == 64 < 65 == 5 * 13


def test_criterion_7_family_spectra_are_unimodal_and_mostly_log_concave():
    for family, points in FAMILY_GRIDS:
        for k, r in points:
            s = family_spectrum(family, k=k, r=r)
            assert is_unimodal(s), (family.value, k, r)
            if family in ALWAYS_LOG_CONCAVE:
                assert is_log_concave(s), (family.value, k, r)


def test_criterion_8_resume_refuses_a_file_that_is_not_a_prefix(tmp_path):
    """A record file is a function of its job: --resume continues only a
    prefix of the job's records, and any other file exits 64 as it was."""
    path = tmp_path / "records.ndjson"
    assert cli.main(["sweep", "--n-max", "4", "--out", str(path)]) == 0
    edited = path.read_bytes().replace(b'"index": 1', b'"index": 2', 1)
    path.write_bytes(edited)
    assert cli.main(["sweep", "--n-max", "4", "--out", str(path), "--resume"]) == 64
    assert path.read_bytes() == edited
