"""Limits come from ``config.DEFAULT`` alone, read by the check that enforces
them; the environment is read on first use."""

import dataclasses
import inspect
import json
import sys

import pytest

import palgebra
from palgebra import (
    BudgetExceeded,
    CapExceeded,
    Config,
    Equation,
    algebras,
    build_chain,
    build_free,
    build_si,
    check_identity,
    check_quasi_identity,
    config,
    decide,
    free,
    h3_poset,
    normal_form,
    oracle_equivalence,
    parse,
    product,
    qb_quasi_identity,
    stone_decompose,
    structural_completeness_report,
    to_table,
)
from palgebra.cli import main

LIMIT_NAMES = {"budget", "poset_cap", "element_cap"}
HUGE = 10 ** 30  # a rank whose 2^k cannot be built
# primitives that library code calls with an order's own size, and the
# brute-force oracle that tests run past the default oracle cap
KEEP_CAP = {"Poset.__init__", "Poset.from_leq", "enumerate_upsets",
            "all_congruences", "compose_check_permutability"}


def public_callables():
    """Public functions and methods, but not the limits' own record (Config)
    or the errors that report them."""
    for mod in vars(palgebra).values():
        if (not inspect.ismodule(mod) or not mod.__name__.startswith("palgebra.")
                or mod.__name__ in ("palgebra.config", "palgebra.errors")):
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and (attr == "__init__"
                                                       or not attr.startswith("_")):
                        yield f"{name}.{attr}", member


def lower(monkeypatch, **limits):
    monkeypatch.setattr(config, "DEFAULT", dataclasses.replace(config.DEFAULT, **limits))


def test_no_per_call_limit_keywords():
    seen, bad = set(), []
    for name, fn in public_callables():
        seen.add(name)
        params = set(inspect.signature(fn).parameters)
        if params & LIMIT_NAMES or ("cap" in params and name not in KEEP_CAP):
            bad.append(name)
    assert bad == []
    assert KEEP_CAP <= seen and "build_free" in seen and "UpsetAlgebra.__init__" in seen


class TestPosetCap:
    @pytest.mark.parametrize("call", [
        lambda: normal_form(parse("x1 & x2*"), 2),
        lambda: build_free(2, 2),
        lambda: h3_poset(2, 2),
    ], ids=["normal_form", "build_free", "h3_poset"])
    def test_fires_after_a_default_build_is_cached(self, monkeypatch, call):
        build_free(2, 2)  # 17 indices, now in the skeleton cache
        lower(monkeypatch, poset_cap=16)
        with pytest.raises(CapExceeded) as exc:
            call()
        assert (exc.value.what, exc.value.count, exc.value.cap) == (
            "join-irreducible index set", 17, 16)

    def test_check_identity_falls_back_to_the_sweep(self, monkeypatch):
        e = Equation(parse("x1* | x1**"), parse("1"))
        assert check_identity(e, 2).method == "normal-form"
        lower(monkeypatch, poset_cap=3)  # 4 indices
        v = check_identity(e, 2)
        assert (v.holds, v.method) == (False, "exhaustive")


class TestElementCap:
    @pytest.mark.parametrize("call, what", [
        (lambda: build_si(3), "algebra size"),
        (lambda: product(build_chain(3), build_chain(3)), "product size"),
    ], ids=["build_si", "product"])
    def test_constructions(self, monkeypatch, call, what):
        lower(monkeypatch, element_cap=8)
        with pytest.raises(CapExceeded) as exc:
            call()
        assert (exc.value.what, exc.value.count, exc.value.cap) == (what, 9, 8)

    def test_build_chain_checks_before_tabulating(self, monkeypatch):
        lower(monkeypatch, element_cap=8)
        assert build_chain(8).size == 8

        def boom(*args):
            raise AssertionError("tables built before the cap check")

        monkeypatch.setattr(algebras, "tabulate", boom)
        with pytest.raises(CapExceeded) as exc:
            build_chain(9)
        assert (exc.value.what, exc.value.count, exc.value.cap) == ("algebra size", 9, 8)

    def test_to_table(self, monkeypatch):
        A = build_free(1, 2).algebra
        lower(monkeypatch, element_cap=A.size - 1)
        with pytest.raises(CapExceeded) as exc:
            to_table(A)
        assert exc.value.what == "table size"

    def test_stone_decompose_drops_to_the_poset_level(self, monkeypatch):
        assert stone_decompose(2).level == "elements"  # 108 elements
        lower(monkeypatch, element_cap=100)
        assert stone_decompose(2).level == "poset"


class TestBudget:
    @pytest.mark.parametrize("call, what", [
        (lambda: check_quasi_identity(qb_quasi_identity(3), build_si(3)), "valuation sweep"),
        (lambda: check_quasi_identity(qb_quasi_identity(3), build_si(3), "pruned"),
         "pruned search"),
        (lambda: check_identity(Equation(parse("x1 | x2"), parse("x1")), 1,
                                want_witness=True), "valuation sweep"),
        (lambda: structural_completeness_report(3), "pruned search"),
        (lambda: oracle_equivalence(parse("x1 | x2"), parse("x2 | x1"), 1),
         "valuation sweep"),
    ], ids=["quasi-exhaustive", "quasi-pruned", "identity-witness", "report",
            "oracle_equivalence"])
    def test_lowered_budget_fires(self, monkeypatch, call, what):
        call()  # fits the default budget
        lower(monkeypatch, budget=5)
        with pytest.raises(BudgetExceeded) as exc:
            call()
        assert (exc.value.what, exc.value.budget) == (what, 5)


class TestEnvironment:
    def test_each_field_reads_its_variable(self, monkeypatch):
        for f in dataclasses.fields(Config):
            monkeypatch.delenv(f"PALGEBRA_{f.name.upper()}", raising=False)
        assert config.from_env() == Config()
        monkeypatch.setenv("PALGEBRA_ORACLE_CAP", "5")
        monkeypatch.setenv("PALGEBRA_SEED", "7")
        assert config.from_env() == Config(oracle_cap=5, seed=7)

    def test_bad_value_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.delattr(config, "DEFAULT")  # read again on first use
        monkeypatch.setenv("PALGEBRA_BUDGET", "abc")
        assert main(["si", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: PALGEBRA_BUDGET must be an integer, got 'abc'\n"

    def test_value_is_read_on_first_use(self, monkeypatch, capsys):
        monkeypatch.delattr(config, "DEFAULT")
        monkeypatch.setenv("PALGEBRA_POSET_CAP", "100")
        assert main(["free", "-n", "3", "-k", "3"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "cap-exceeded", "what": "join-irreducible index set",
            "count": 144, "cap": 100}


class TestCountsTooLongToPrint:
    """A count with more digits than the interpreter writes as text is shown
    as "2^N or more"; the exit code and error kind stay those of the limit."""

    @pytest.mark.parametrize("argv", [["nf", "-n", "omega", "x14"],
                                      ["free", "-n", "omega", "-k", "14"]])
    def test_14_variables(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "cap-exceeded", "what": "join-irreducible index set",
            "count": "2^16384 or more", "cap": 2048}

    def test_20_variables(self, capsys):
        assert main(["nf", "-n", "omega", "x20"]) == 2
        assert json.loads(capsys.readouterr().err)["count"] == "2^1048576 or more"

    @pytest.mark.parametrize("k", [14, 25, 33])
    def test_cap_fires_before_the_exact_count(self, monkeypatch, capsys, k):
        def boom(n, k):
            raise AssertionError("exact index count taken")

        monkeypatch.setattr(free, "count_jirr", boom)
        assert main(["nf", "-n", "omega", f"x{k}"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "cap-exceeded", "what": "join-irreducible index set",
            "count": f"2^{1 << k} or more", "cap": 2048}

    def test_count_only_prints_a_count_too_long_to_print(self, capsys):
        assert main(["free", "-n", "omega", "-k", "14", "--count-only"]) == 0
        out = capsys.readouterr()
        assert (json.loads(out.out), out.err) == (
            {"n": "omega", "k": 14, "jCount": "2^16384 or more"}, "")

    def test_budget(self, tmp_path, capsys):
        wide = " | ".join(f"x{i}" for i in range(1, 1601))  # 626^1600 valuations
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"premises": [], "conclusion": {"lhs": wide, "rhs": "1"}}))
        assert main(["qi", str(path), "--algebra", "free:omega,2"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "budget-exceeded", "what": "valuation sweep",
            "needed": "2^14864 or more", "budget": 10 ** 7}

    @pytest.mark.parametrize("k", [14, 20, 33])
    def test_sweep_budget_fires_before_the_exact_count(self, monkeypatch, capsys, k):
        def boom(n_eff, k):
            raise AssertionError("exact valuation count taken")

        monkeypatch.setattr(decide, "_sweep_count", boom)
        assert main(["eq", "--variety", "pa", "--", f"x{k}", "x1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ('{"error": "budget-exceeded", "what": "valuation sweep", '
                           f'"needed": "2^{k << k} or more", "budget": 10000000}}\n')

    @pytest.mark.parametrize("n_eff, k", [(15, 953), (15, 16383), (7143, 2), (14285, 1),
                                          (2, 10000), (1, 20000), (16, 32768), (4, 4000)])
    def test_sweep_count_text_is_the_exact_counts(self, n_eff, k):
        # the shortcut (where k < 2^(n_eff - 1)) and the exact count agree
        with pytest.raises(BudgetExceeded) as exc:
            decide._sweep_equation(Equation(parse(f"x{k}"), parse("x1")), n_eff, k)
        assert exc.value.shown == BudgetExceeded("", ((1 << n_eff) + 1) ** k, 1).shown

    @pytest.mark.parametrize("argv", [["convert", f"free:2,{HUGE}"],
                                      ["nf", "-n", "2", "--", f"x{HUGE}"],
                                      ["free", "-n", "2", "-k", str(HUGE), "--count-only"]])
    def test_huge_rank_is_shown_from_a_lower_bound(self, monkeypatch, capsys, argv):
        # 2^(10^30) is never built, and the count's sum is never taken
        def boom(n, k):
            raise AssertionError("exact index count taken")

        monkeypatch.setattr(free, "count_jirr", boom)
        text = f"2^{2 * HUGE - 4} or more"  # C(2^k, 2) >= (2^k / 2)^2 >= 2^(2k - 4)
        code = main(argv)
        out = capsys.readouterr()
        if "--count-only" in argv:
            assert (code, out.err) == (0, "")
            assert json.loads(out.out) == {"n": 2, "k": HUGE, "jCount": text}
        else:
            assert (code, out.out) == (2, "")
            assert json.loads(out.err) == {"error": "cap-exceeded",
                                           "what": "join-irreducible index set",
                                           "count": text, "cap": 2048}

    @pytest.mark.parametrize("variety, k, needed", [("pa2", HUGE, f"2^{2 * HUGE} or more"),
                                                    ("pa", HUGE, f"2^(2^{HUGE}) or more"),
                                                    ("pa", 14271, "2^(2^14271) or more")])
    def test_huge_rank_sweep_is_shown_from_a_lower_bound(self, monkeypatch, capsys,
                                                        variety, k, needed):
        def boom(n_eff, k):
            raise AssertionError("exact valuation count taken")

        monkeypatch.setattr(decide, "_sweep_count", boom)
        assert main(["eq", "--variety", variety, "--", f"x{k}", "x1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "budget-exceeded", "what": "valuation sweep",
                                       "needed": needed, "budget": 10 ** 7}

    def test_lower_bounds_are_below_the_exact_counts(self, monkeypatch):
        # with no count computed exactly, every text is a true lower bound
        monkeypatch.setattr(free, "COUNT_BITS_LIMIT", 0)
        monkeypatch.setattr(decide, "COUNT_BITS_LIMIT", 0)
        for k in range(1, 9):
            for n in range(1, 1 << k):
                text = free.count_jirr_or_text(n, k)
                assert 1 << int(text[2:-8]) <= free.count_jirr(n, k), (n, k)
        for n_eff, k in [(1, 14285), (2, 8000), (3, 5000), (4, 16000)]:
            with pytest.raises(BudgetExceeded) as exc:
                decide._sweep_equation(Equation(parse(f"x{k}"), parse("x1")), n_eff, k)
            assert 1 << int(exc.value.shown[2:-8]) <= decide._sweep_count(n_eff, k)

    @pytest.mark.parametrize("cmd", ["si", "convert", "dual", "qi"])
    def test_si_too_large_to_build(self, cmd, tmp_path, capsys):
        # 2^(10^30) + 1 is refused before it is built: no OverflowError
        n = 10 ** 30
        argv = {"si": ["si", str(n)], "convert": ["convert", f"si:{n}"],
                "dual": ["dual", f"si:{n}"]}.get(cmd)
        if argv is None:
            path = tmp_path / "q.json"
            path.write_text(json.dumps({"conclusion": {"lhs": "x1", "rhs": "x1"}}))
            argv = ["qi", str(path), "--algebra", f"si:{n}"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ('{"error": "cap-exceeded", "what": "algebra size", '
                           f'"count": "2^{n} or more", "cap": 4096}}\n')

    @pytest.mark.parametrize("n, shown", [(14284, (1 << 14284) + 1), (14285, "2^14285 or more")])
    def test_si_size_text_is_the_exact_count(self, n, shown):
        with pytest.raises(CapExceeded) as exc:
            build_si(n)
        assert exc.value.shown == shown == CapExceeded("", (1 << n) + 1, 1).shown

    def test_printable_counts_keep_their_digits(self):
        assert CapExceeded("x", 10 ** 4299, 1).shown == 10 ** 4299
        assert str(CapExceeded("x", 10 ** 4300, 1)) == "x: 2^14284 or more exceeds cap 1"
        assert str(BudgetExceeded("y", 7, 5)) == "y: 7 valuations exceed budget 5"

    def test_the_interpreters_limit_only_lowers_the_threshold(self):
        # switched off, the default still applies: a huge count is never
        # written out; set lower, counts above it are not printed either
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert CapExceeded("x", 1 << (1 << 20), 1).shown == "2^1048576 or more"
            assert CapExceeded("x", 10 ** 4299, 1).shown == 10 ** 4299
            sys.set_int_max_str_digits(640)
            assert CapExceeded("x", 10 ** 639, 1).shown == 10 ** 639
            assert CapExceeded("x", 10 ** 640, 1).shown == "2^2126 or more"
        finally:
            sys.set_int_max_str_digits(saved)
