"""Suite registry, golden tables, report plumbing, and failure records."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from tanpoly import cli, symbolic, triangles, verify
from tanpoly.exact import GaussianInt, Rational
from tanpoly.multiangle import DEFAULT_GRID
from tanpoly.verify import (
    RTILDE_GOLDEN,
    SUITE_NAMES,
    TTILDE_GOLDEN,
    VerifyReport,
    run_all,
    run_suite,
    verify_tables,
)


class TestReport:
    """A report is plain data; `verify` writes its summary line and its JSON dict."""

    def test_passes_when_no_failures(self, capsys):
        assert VerifyReport("demo", 10).passed
        assert cli.main(["verify", "--suite", "tables", "--max-n", "7"]) == 0
        assert capsys.readouterr().out == "tables: pass (checked 10)\n"

    def test_failure_rendering(self, monkeypatch, capsys):
        report = VerifyReport("demo", 3, ({"n": "2", "k": "1", "lhs": "5", "rhs": "6"},))
        assert not report.passed
        module, name, patch, _, _ = FAULTS["tables"]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        assert cli.main(["verify", "--suite", "tables", "--max-n", "7"]) == 1
        assert capsys.readouterr().out == (
            "tables: FAIL (checked 10, failures 1)\n"
            "  family=Rtilde n=3 got=[1, 5, 5] want=[1, 5, 4]\n"
        )

    def test_json_report_dicts(self, monkeypatch, capsys):
        note = (
            "N is checked on its full defining range k <= floor((n+1)/2), one column wider than "
            "the M range k <= floor(n/2); the closed form holds on the wider range as well."
        )
        keys = ["suite", "checked", "pass", "failures", "notes"]
        assert cli.main(["verify", "--suite", "corollary", "--max-n", "7", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "pass": True,
            "reports": [{"suite": "corollary", "checked": 44, "pass": True, "failures": [], "notes": [note]}],
        }
        assert list(doc) == ["pass", "reports"] and list(doc["reports"][0]) == keys

        module, name, patch, _, record = FAULTS["tables"]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        assert cli.main(["verify", "--suite", "tables", "--max-n", "7", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "pass": False,
            "reports": [{"suite": "tables", "checked": 10, "pass": False, "failures": [record], "notes": []}],
        }
        assert list(doc["reports"][0]) == keys


class TestGoldenTables:
    def test_embedded_rows(self):
        assert RTILDE_GOLDEN[4] == (1, 14, 41, 44, 16)
        assert TTILDE_GOLDEN[4] == (5, 30, 61, 52, 16)
        assert len(RTILDE_GOLDEN) == len(TTILDE_GOLDEN) == 5

    def test_verify_tables(self):
        report = verify_tables(5)
        assert report.passed
        assert report.checked == 10

    def test_verify_tables_caps_at_golden_data(self):
        assert verify_tables(12).checked == 10
        assert verify_tables(2).checked == 4


class TestRegistry:
    def test_names(self):
        assert SUITE_NAMES == (
            "rt-recurrences",
            "corollary",
            "dz-expansion",
            "hoffman",
            "theorem2",
            "tables",
            "beeler",
        )

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_each_suite_passes(self, name):
        report = run_suite(name, 8)
        assert report.passed
        assert report.suite == name
        assert report.checked > 0

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_max_n_below_the_floor_raises(self, name):
        # the CLI rejects --max-n 0 first, so only library calls reach this check
        floor = 0 if name in ("dz-expansion", "hoffman", "beeler") else 1
        with pytest.raises(ValueError, match=f"^max_n must be at least {floor}$"):
            run_suite(name, floor - 1)
        assert run_suite(name, floor).passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", 5)

    def test_run_all(self):
        reports = run_all(12)
        assert [r.suite for r in reports] == list(SUITE_NAMES)
        assert all(r.passed for r in reports)


def plus_one(value):
    return value + 1


def inject(at, spoil):
    """A patch that makes a function return a spoiled value at the arguments `at`.

    A sweep hands that value back as the first argument of its next step; the
    step is taken from the right value instead, so only the value compared at
    one n is wrong.
    """

    def patch(real):
        right = real(*at)
        wrong = spoil(right)

        def patched(*args):
            if args == at:
                return wrong
            return real(*((right, *args[1:]) if args[:1] == (wrong,) else args))

        return patched

    return patch


def bump(row, k):
    """A copy of row, as a tuple, with 1 added to entry k."""
    return (*row[:k], row[k] + 1, *row[k + 1 :])


def spoil_draw(i, change, *at):
    """A patch for a sequence function: item i of the sequence made for the
    arguments `at` becomes change(item), and the items after it are stepped
    from the right one.

    Each call starts a fresh sequence: the suite is run twice, and a sequence
    made once would be used up by the first run.
    """

    def patch(real):
        def patched(*args):
            for j, item in enumerate(real(*args)):
                yield change(item) if (args, j) == (at, i) else item

        return patched

    return patch


def spoil_coef(*at):
    """A patch for binom that adds 1 to its value at each (n, j) in at."""

    def patch(real):
        def patched(n, j):
            value = real(n, j)
            return value + 1 if (n, j) in at else value

        return patched

    return patch


def spoil_power(base, n, value):
    """A patch for the GaussianInt class: the power n of base, an (re, im) pair, is value."""

    def patch(real):
        class Spoiled(real):
            __slots__ = ()

            def __pow__(self, k):
                return value if ((self.re, self.im), k) == (base, n) else super().__pow__(k)

        return Spoiled

    return patch


# suite: (module and name of the function spoiled, the patch, checked at
# max_n = 7, the one failure record expected, keys in order). The
# dz-expansion entry spoils M(3, 1) in the closed M row of n = 3. The hoffman
# entry spoils the row step from P_2 = 2y + 2y^3 to P_3 and the theorem2
# entry the operator step from R_3 = 1 + 5y^2 + 4y^4 to R_4; both live in
# symbolic, behind hoffman_p and r_poly_dz.
FAULTS = {
    "rt-recurrences": (
        triangles, "binom", inject((8, 5), plus_one), 60,
        {"family": "R", "n": "7", "k": "2", "lhs": "399", "rhs": "392"},
    ),
    "corollary": (
        verify, "m_row_seq", spoil_draw(3, lambda row: bump(row, 1)), 44,
        {"family": "M", "n": "3", "k": "1", "rec": "25", "closed": "24"},
    ),
    "dz-expansion": (
        verify, "_mn_closed_row", inject((3, 0), lambda row: bump(row, 1)), 16,
        {
            "family": "M",
            "n": "3",
            "got": "[((1, 6), 24), ((3, 4), 24)]",
            "want": "[((1, 6), 25), ((3, 4), 24)]",
        },
    ),
    "hoffman": (
        symbolic, "_hoffman_step", inject(([2, 2], 1, 0), lambda row: [row[0] + 1, *row[1:]]), 16,
        {
            "family": "P",
            "n": "3",
            "got": "ReducedPair(f=YPoly({0: 2, 2: 8, 4: 6}), g=YPoly({}))",
            "want": "3 + 8y^2 + 6y^4",
        },
    ),
    "theorem2": (
        symbolic, "_dz_step", inject(([1, 5, 4], 0, 3), lambda row: [row[0] + 1, *row[1:]]), 28,
        {
            "family": "R",
            "n": "4",
            "closed": "4y + 16y^3 + 20y^5 + 8y^7",
            "operator": "5y + 16y^3 + 20y^5 + 8y^7",
        },
    ),
    "tables": (
        verify, "tilde_rows", spoil_draw(2, lambda rows: (bump(rows[0], 2), rows[1])), 10,
        {"family": "Rtilde", "n": "3", "got": "[1, 5, 5]", "want": "[1, 5, 4]"},
    ),
    "beeler": (
        verify, "_addition_pairs", spoil_draw(2, lambda pair: (0, 1), Rational(1, 2)), 104,
        {"n": "2", "t": "1/2", "beeler": "4/3", "addition": "0", "gaussian": "4/3"},
    ),
}


# suite: (the functions spoiled, as (module, name, patch), and the failure
# records expected at max_n = 7, in order), for the suites that compare whole
# rows or pairs and build records only for a row or point that differs.
# rt-recurrences has R and T wrong at two k of one n, corollary two entries of
# one M row, dz-expansion one entry of the closed M and N rows of one n,
# theorem2 both closed forms wrong at one n, which spoils all four records,
# and beeler the Gaussian power at one point and the addition pair at an
# earlier one.
MULTI_FAULTS = {
    "rt-recurrences": (
        [(triangles, "binom", spoil_coef((8, 3), (8, 7), (8, 2), (8, 6)))],
        [
            {"family": "R", "n": "7", "k": "1", "lhs": "399", "rhs": "392"},
            {"family": "T", "n": "7", "k": "1", "lhs": "203", "rhs": "196"},
            {"family": "R", "n": "7", "k": "3", "lhs": "63", "rhs": "56"},
            {"family": "T", "n": "7", "k": "3", "lhs": "203", "rhs": "196"},
        ],
    ),
    "corollary": (
        [(verify, "m_row_seq", spoil_draw(5, lambda row: bump(bump(row, 0), 2)))],
        [
            {"family": "M", "n": "5", "k": "0", "rec": "721", "closed": "720"},
            {"family": "M", "n": "5", "k": "2", "rec": "721", "closed": "720"},
        ],
    ),
    "dz-expansion": (
        [
            (verify, "_mn_closed_row", inject((4, 0), lambda row: bump(row, 2))),
            (verify, "_mn_closed_row", inject((4, 1), lambda row: bump(row, 0))),
        ],
        [
            {
                "family": "M",
                "n": "4",
                "got": "[((0, 9), 24), ((2, 7), 240), ((4, 5), 120)]",
                "want": "[((0, 9), 25), ((2, 7), 240), ((4, 5), 120)]",
            },
            {
                "family": "N",
                "n": "4",
                "got": "[((1, 8), 120), ((3, 6), 240), ((5, 4), 24)]",
                "want": "[((1, 8), 120), ((3, 6), 240), ((5, 4), 25)]",
            },
        ],
    ),
    "theorem2": (
        [(triangles, "binom", spoil_coef((4, 3), (4, 2)))],
        [
            {"family": "R", "n": "4", "closed": "5y + 19y^3 + 23y^5 + 9y^7", "operator": "4y + 16y^3 + 20y^5 + 8y^7"},
            {"family": "T", "n": "4", "closed": "1 + 10y^2 + 18y^4 + 9y^6", "operator": "1 + 9y^2 + 16y^4 + 8y^6"},
            {"family": "Rtilde", "n": "4", "closed": "[1, 10, 18, 9]", "recurrence": "[1, 9, 16, 8]"},
            {"family": "Ttilde", "n": "4", "closed": "[5, 19, 23, 9]", "recurrence": "[4, 16, 20, 8]"},
        ],
    ),
    "beeler": (
        [
            (verify, "GaussianInt", spoil_power((2, 7), 5, GaussianInt(0, 1))),
            (verify, "_addition_pairs", spoil_draw(3, lambda pair: (3, 4), Rational(-1, 3))),
        ],
        [
            {"n": "3", "t": "-1/3", "beeler": "-13/9", "addition": "3/4", "gaussian": "-13/9"},
            {"n": "5", "t": "7/2", "beeler": "3647/20122", "addition": "3647/20122", "gaussian": "pole"},
        ],
    ),
}


def json_failures(suite, capsys):
    """The failure records of `verify --suite <suite> --max-n 7 --json`, which must exit 1."""
    assert cli.main(["verify", "--suite", suite, "--max-n", "7", "--json"]) == 1
    return [list(f.items()) for f in json.loads(capsys.readouterr().out)["reports"][0]["failures"]]


class TestFailureRecords:
    def test_every_suite_has_a_fault(self):
        assert sorted(FAULTS) == sorted(SUITE_NAMES)

    @pytest.mark.parametrize("suite", sorted(FAULTS))
    def test_one_wrong_value(self, suite, monkeypatch, capsys):
        module, name, patch, checked, record = FAULTS[suite]
        assert run_suite(suite, 7).checked == checked
        monkeypatch.setattr(module, name, patch(getattr(module, name)))

        report = run_suite(suite, 7)
        assert report.checked == checked
        assert [list(f.items()) for f in report.failures] == [list(record.items())]
        assert json_failures(suite, capsys) == [list(record.items())]

    @pytest.mark.parametrize("suite", sorted(MULTI_FAULTS))
    def test_several_wrong_values(self, suite, monkeypatch, capsys):
        patches, records = MULTI_FAULTS[suite]
        for module, name, patch in patches:
            monkeypatch.setattr(module, name, patch(getattr(module, name)))

        report = run_suite(suite, 7)
        assert report.checked == FAULTS[suite][3]
        assert [list(f.items()) for f in report.failures] == [list(r.items()) for r in records]
        assert json_failures(suite, capsys) == [list(r.items()) for r in records]

    @pytest.mark.parametrize(
        "route, name, patch, t, value",
        [
            ("beeler", "_alternating_sums", inject((2, Rational(1, 2)), lambda pair: (0, 0)), "1/2", "4/3"),
            ("addition", "_addition_pairs", spoil_draw(2, lambda pair: (0, 0), Rational(1, 2)), "1/2", "4/3"),
            ("gaussian", "GaussianInt", spoil_power((2, 1), 2, GaussianInt(0, 0)), "1/2", "4/3"),
            ("beeler", "_alternating_sums", inject((2, Rational(1)), lambda pair: (0, 0)), "1", "pole"),
            ("addition", "_addition_pairs", spoil_draw(2, lambda pair: (0, 0), Rational(1)), "1", "pole"),
            ("gaussian", "GaussianInt", spoil_power((1, 1), 2, GaussianInt(0, 0)), "1", "pole"),
        ],
        ids=["beeler", "addition", "gaussian", "beeler-at-pole", "addition-at-pole", "gaussian-at-pole"],
    )
    def test_beeler_zero_pair_is_the_pole(self, monkeypatch, capsys, route, name, patch, t, value):
        # (0, 0) is proportional to every pair, yet _pair_value reads it as the
        # pole, so one route's (0, 0) at n = 2 must fail: at t = 1/2 against
        # 4/3, and at t = 1, where the true pair (2, 0) is the pole, although
        # all three routes then read the pole.
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
        record = {"n": "2", "t": t, "beeler": value, "addition": value, "gaussian": value, route: "pole"}
        report = run_suite("beeler", 7)
        assert report.checked == FAULTS["beeler"][3]
        assert [list(f.items()) for f in report.failures] == [list(record.items())]
        assert json_failures("beeler", capsys) == [list(record.items())]

    @pytest.mark.parametrize(
        "length, checked, record",
        [
            (2, 44, {"family": "M", "n": "5", "k": "2", "rec": "0", "closed": "720"}),
            (4, 45, {"family": "M", "n": "5", "k": "3", "rec": "1", "closed": "0"}),
        ],
        ids=["short", "long"],
    )
    def test_corollary_row_of_wrong_length_gives_records(self, monkeypatch, length, checked, record):
        # row 5 of M, [720, 2400, 720], is cut to two entries or given a fourth, 1;
        # an entry past a row's end reads as 0
        patch = spoil_draw(5, lambda row: (*row, 1)[:length])
        monkeypatch.setattr(verify, "m_row_seq", patch(verify.m_row_seq))
        report = run_suite("corollary", 7)
        assert report.checked == checked
        assert [list(f.items()) for f in report.failures] == [list(record.items())]

    @pytest.mark.parametrize(
        "lengths, records",
        [
            pytest.param((2, None), "R 4 2 0 4, R 5 2 30 20", id="short-r_row"),
            pytest.param((4, None), "R 4 3 4 0, R 5 3 0 12, R 5 4 0 -2", id="long-r_row"),
            pytest.param((None, 2), "T 4 2 0 20, T 5 2 75 30, T 5 3 5 0", id="short-t_row"),
            pytest.param((None, 4), "T 4 3 4 0, T 5 3 5 16, T 5 4 0 -1", id="long-t_row"),
            pytest.param((2, 2), "R 4 2 0 4, T 4 2 0 20, R 5 2 30 20, T 5 2 75 30, T 5 3 5 0", id="short-both-2"),
            pytest.param(
                (1, 1),
                "R 4 1 0 40, T 4 1 0 40, R 4 2 0 4, T 4 2 0 20, R 5 1 100 20, "
                "T 5 1 75 5, R 5 2 30 0, T 5 2 75 0, T 5 3 5 0",
                id="short-both-1",
            ),
            pytest.param(
                (0, 0),
                "R 4 0 0 20, T 4 0 0 4, R 4 1 0 40, T 4 1 0 40, R 4 2 0 4, "
                "T 4 2 0 20, R 5 0 30 0, T 5 0 5 0, R 5 1 100 0, T 5 1 75 0, "
                "R 5 2 30 0, T 5 2 75 0, T 5 3 5 0",
                id="short-both-0",
            ),
            pytest.param(
                (4, 4), "R 4 3 4 0, T 4 3 4 0, R 5 3 0 12, T 5 3 5 16, R 5 4 0 -2, T 5 4 0 -1", id="long-both-4"
            ),
            pytest.param(
                (6, 6), "R 4 3 4 0, T 4 3 4 0, R 5 3 0 12, T 5 3 5 16, R 5 4 0 12, T 5 4 0 12", id="long-both-6"
            ),
            pytest.param((2, 4), "R 4 2 0 4, T 4 3 4 0, R 5 2 30 20, T 5 3 5 16, T 5 4 0 -1", id="short-r-long-t"),
            pytest.param(
                (4, 2), "T 4 2 0 20, R 4 3 4 0, T 5 2 75 30, R 5 3 0 12, T 5 3 5 0, R 5 4 0 -2", id="long-r-short-t"
            ),
        ],
    )
    def test_rt_row_of_wrong_length_gives_records(self, monkeypatch, lengths, records):
        # row 5 of R and of T has three entries; each half named by a length is cut
        # to it or given 1s up to it, alone or with the other half, so neither
        # half's padding can lean on the other's length. A record reads
        # "family n k lhs rhs".
        for name, length in zip(("r_row", "t_row"), lengths):
            if length is not None:
                real = getattr(verify, name)
                monkeypatch.setattr(verify, name, lambda n, f=real, m=length: [*f(n), 1, 1, 1][:m] if n == 5 else f(n))
        report = run_suite("rt-recurrences", 7)
        assert report.checked == FAULTS["rt-recurrences"][3]
        fields = ("family", "n", "k", "lhs", "rhs")
        assert [list(f.items()) for f in report.failures] == [list(zip(fields, r.split())) for r in records.split(", ")]


class TestOneRoutePerFamily:
    """The suites sweep the sequences behind the per-n functions, so one wrong
    step in symbolic or triangles shows in both; a suite that stepped its own copy would pass."""

    def test_hoffman_and_poly_p_share_the_row_step(self, monkeypatch, capsys):
        module, name, patch, _, record = FAULTS["hoffman"]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        assert cli.main(["poly", "--family", "P", "--n", "3"]) == 0
        assert capsys.readouterr().out == "3 + 8y^2 + 6y^4\n"
        assert json_failures("hoffman", capsys) == [list(record.items())]

    def test_theorem2_and_triangle_share_the_tilde_rows(self, monkeypatch, capsys):
        # Rtilde row 4 is T_4 = 1 + 9y^2 + 16y^4 + 8y^6; the y^4 entry is spoiled
        # where the recurrence yields it. verify holds the function triangles
        # defines, so both references are patched with the one spoiled sequence.
        assert verify.tilde_rows is triangles.tilde_rows
        spoiled = spoil_draw(3, lambda rows: (bump(rows[0], 2), rows[1]))(triangles.tilde_rows)
        monkeypatch.setattr(triangles, "tilde_rows", spoiled)
        monkeypatch.setattr(verify, "tilde_rows", spoiled)
        assert cli.main(["triangle", "--name", "Rtilde", "--rows", "5", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "1\n1,2\n1,5,4\n1,9,17,8\n1,14,41,44,16\n"
        record = {"family": "Rtilde", "n": "4", "closed": "[1, 9, 16, 8]", "recurrence": "[1, 9, 17, 8]"}
        assert json_failures("theorem2", capsys) == [list(record.items())]

    def test_rt_recurrences_theorem2_and_triangle_share_the_r_rows(self, monkeypatch, capsys):
        # Row 5 of R, [5, 10, 1], loses its last entry where r_row makes it.
        # symbolic and verify hold the function triangles defines, so all three
        # references are patched with the one spoiled function.
        assert verify.r_row is symbolic.r_row is triangles.r_row
        real = triangles.r_row

        def spoiled(n):
            return real(n)[:-1] if n == 5 else real(n)

        for module in (triangles, symbolic, verify):
            monkeypatch.setattr(module, "r_row", spoiled)
        assert cli.main(["triangle", "--name", "R", "--rows", "7", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "\n1\n2\n3,1\n4,4\n5,10\n6,20,6\n"
        records = [
            {"family": "R", "n": "4", "k": "2", "lhs": "0", "rhs": "4"},
            {"family": "R", "n": "5", "k": "2", "lhs": "30", "rhs": "20"},
        ]
        assert json_failures("rt-recurrences", capsys) == [list(r.items()) for r in records]
        records = [
            {
                "family": "R",
                "n": "5",
                "closed": "10 + 35y^2 + 40y^4 + 15y^6",
                "operator": "1 + 14y^2 + 41y^4 + 44y^6 + 16y^8",
            },
            {"family": "Rtilde", "n": "5", "closed": "[10, 35, 40, 15]", "recurrence": "[1, 14, 41, 44, 16]"},
        ]
        assert json_failures("theorem2", capsys) == [list(r.items()) for r in records]
        # the closed M row 4 is 4! times row 5 of R, so it loses its last entry too
        record = {"family": "M", "n": "4", "k": "2", "rec": "24", "closed": "0"}
        assert json_failures("corollary", capsys) == [list(record.items())]
        record = {
            "family": "M",
            "n": "4",
            "got": "[((0, 9), 24), ((2, 7), 240), ((4, 5), 120)]",
            "want": "[((2, 7), 240), ((4, 5), 120)]",
        }
        assert json_failures("dz-expansion", capsys) == [list(record.items())]

    def test_theorem2_and_r_poly_dz_share_the_dz_step(self, monkeypatch, capsys):
        # the step from R_3 to R_4
        module, name, patch, _, record = FAULTS["theorem2"]
        monkeypatch.setattr(module, name, patch(getattr(module, name)))
        assert str(symbolic.r_poly_dz(4)) == "5y + 16y^3 + 20y^5 + 8y^7"
        assert json_failures("theorem2", capsys) == [list(record.items())]


class TestLinearWork:
    """The swept routes take one operator step per n, not n steps, and none
    past max_n."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # symbolic steps the sequences; verify steps the plain diff route of hoffman.
        calls = Counter()
        spied = [(symbolic, name) for name in ("diff", "apply_dz", "reduce_z", "_hoffman_step", "_dz_step")]
        for module, name in (*spied, (verify, "diff")):
            real = getattr(module, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("m", [7, 30])
    def test_dz_expansion(self, calls, m):
        # apply_dz maps each monomial itself; it takes no diff.
        assert verify.verify_operator_expansion(m).passed
        assert calls == {"apply_dz": 2 * m}

    @pytest.mark.parametrize("m", [7, 30])
    def test_hoffman(self, calls, m):
        assert verify.verify_hoffman(m).passed
        assert calls == {"diff": 2 * m, "_hoffman_step": 2 * m}

    @pytest.mark.parametrize("m", [7, 30])
    def test_theorem2(self, calls, m):
        # Each _dz_step takes one _hoffman_step; no iterate is reduced.
        assert verify.verify_closed_forms(m).passed
        assert calls == {"_dz_step": 2 * (m - 1), "_hoffman_step": 2 * (m - 1)}

    @pytest.fixture
    def tilde_draws(self, monkeypatch):
        # sweeps started and rows drawn from tilde_rows
        drawn = Counter()
        real = verify.tilde_rows

        def counted():
            drawn["sweeps"] += 1
            for rows in real():
                drawn["rows"] += 1
                yield rows

        monkeypatch.setattr(verify, "tilde_rows", counted)
        return drawn

    @pytest.mark.parametrize("m", [7, 30])
    def test_theorem2_tilde_rows(self, tilde_draws, m):
        assert verify.verify_closed_forms(m).passed
        assert tilde_draws == {"sweeps": 1, "rows": m}

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 30])
    def test_tables_tilde_rows(self, tilde_draws, m):
        assert verify.verify_tables(m).passed
        assert tilde_draws == {"sweeps": 1, "rows": min(m, 5)}

    @pytest.mark.parametrize("m", [7, 30])
    def test_beeler_addition_sequences(self, monkeypatch, m):
        # one pair sequence per grid point, one pair drawn per n
        drawn = Counter()
        real = verify._addition_pairs

        def counted(t):
            drawn["sweeps"] += 1
            for pair in real(t):
                drawn["pairs"] += 1
                yield pair

        monkeypatch.setattr(verify, "_addition_pairs", counted)
        assert verify.verify_triple_agreement(m).passed
        assert drawn == {"sweeps": len(DEFAULT_GRID), "pairs": len(DEFAULT_GRID) * (m + 1)}

    @pytest.fixture
    def closed_rows(self, monkeypatch):
        # closed M/N rows made, by family
        made = Counter()
        real = verify._mn_closed_row

        def counted(n, s):
            made["MN"[s]] += 1
            return real(n, s)

        monkeypatch.setattr(verify, "_mn_closed_row", counted)
        return made

    @pytest.mark.parametrize("suite", ["corollary", "dz-expansion"])
    @pytest.mark.parametrize("m", [7, 30])
    def test_one_closed_row_per_n(self, closed_rows, suite, m):
        assert run_suite(suite, m).passed
        assert closed_rows == {"M": m + 1, "N": m + 1}

    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_rt_recurrences_reads_each_binomial_once(self, monkeypatch, m):
        reads = Counter()
        for name in ("binom", "r_coef", "t_coef"):

            def counted(n, j, name=name, real=getattr(triangles, name)):
                reads[name, n, j] += 1
                return real(n, j)

            monkeypatch.setattr(triangles, name, counted)
        assert verify.verify_rt_recurrences(m).passed
        # the rows take each entry straight from binom, not through r_coef/t_coef
        assert {name for name, _, _ in reads} == {"binom"}
        assert set(reads.values()) == {1}
        assert {n for _, n, _ in reads} == set(range(1, m + 2))

    @pytest.mark.parametrize("m", [7, 30])
    def test_corollary(self, monkeypatch, m):
        drawn = Counter()
        for name in ("m_row_seq", "n_row_seq"):

            def counted(name=name, real=getattr(verify, name)):
                for row in real():
                    drawn[name] += 1
                    yield row

            monkeypatch.setattr(verify, name, counted)
        assert verify.verify_rec_vs_closed(m).passed
        assert drawn == {"m_row_seq": m + 1, "n_row_seq": m + 1}


    @pytest.mark.parametrize("suite", ["rt-recurrences", "corollary", "dz-expansion", "theorem2", "beeler"])
    @pytest.mark.parametrize("m", [7, 30])
    def test_passing_rows_take_one_comparison(self, monkeypatch, suite, m):
        # A row or point that passes is one comparison: nothing goes through
        # _Tally.check, theorem2 makes no YPoly, dz-expansion sorts no terms
        # and beeler makes no TanValue, yet every comparison is counted.
        calls = Counter()
        spied = ((verify._Tally, "check"), (symbolic, "_stride_poly"), (verify, "_stride_poly"))
        for owner, name in (*spied, (verify, "_pair_value"), (symbolic.YZPoly, "terms")):

            def counted(*args, name=name, real=getattr(owner, name), **fields):
                calls[name] += 1
                return real(*args, **fields)

            monkeypatch.setattr(owner, name, counted)
        checked = {
            "rt-recurrences": sum(2 * ((n + 1) // 2 + 2) for n in range(1, m + 1)),
            "corollary": sum(n // 2 + 1 + (n + 1) // 2 + 1 for n in range(m + 1)),
            "dz-expansion": 2 * (m + 1),
            "theorem2": 4 * m,
            "beeler": len(DEFAULT_GRID) * (m + 1),
        }
        report = run_suite(suite, m)
        assert report.passed and report.checked == checked[suite]
        assert calls == {}


class TestPerNCall:
    """r_poly_dz(n)/t_poly_dz(n) take n-1 row steps, reduce nothing and make
    only the last row a YPoly."""

    @pytest.mark.parametrize("fn", [symbolic.r_poly_dz, symbolic.t_poly_dz], ids=["R", "T"])
    @pytest.mark.parametrize("m", [7, 30])
    def test_per_n_call(self, monkeypatch, fn, m):
        calls = Counter()
        for name in ("reduce_z", "apply_dz", "_dz_step", "_hoffman_step", "_stride_poly"):

            def counted(*args, name=name, real=getattr(symbolic, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(symbolic, name, counted)
        fn(m)
        assert calls == {"_dz_step": m - 1, "_hoffman_step": m - 1, "_stride_poly": 1}
