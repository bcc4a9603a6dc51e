import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fmrep import catalog, permcore
from fmrep.cli import (
    EXIT_CAP,
    EXIT_CERTIFICATE,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
    read_generator_file,
    run_analysis,
    verify_catalog,
)

from .oracles import report_from_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_s4(capsys):
    code, out, err = run_cli(capsys, "run", "--group", "S4", "--prime", "2")
    assert code == EXIT_OK
    assert "fusion classes   4" in out
    assert "atoms            4" in out
    assert "factorial        True" in out


def test_run_s9_report_values(capsys):
    code, out, err = run_cli(capsys, "run", "--group", "S9")
    assert code == EXIT_OK
    assert "fusion classes   5" in out
    assert "atoms            6" in out
    assert "factorial        False" in out
    assert "half-factorial   True" in out


def test_run_s6_not_half_factorial(capsys):
    code, out, err = run_cli(capsys, "run", "--group", "S6")
    assert code == EXIT_OK
    assert "half-factorial   False" in out
    assert "lengths 3 vs 2" in out or "lengths 2 vs 3" in out


def test_run_modes(capsys):
    code, out, _ = run_cli(capsys, "run", "--group", "S4", "--mode", "fusion")
    assert code == EXIT_OK
    assert "lattice" not in out and "atoms" not in out
    code, out, _ = run_cli(capsys, "run", "--group", "S4", "--mode", "lattice")
    assert code == EXIT_OK
    assert "lattice rank" in out and "atom " not in out


def test_run_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "run", "--group", "S6")
    _, second, _ = run_cli(capsys, "run", "--group", "S6")
    assert first == second


def test_json_report_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "run", "--group", "S9", "--out", str(out_file)
    )
    assert code == EXIT_OK
    data = json.loads(out_file.read_text())
    report = report_from_json_dict(data)
    assert report.to_json_dict() == data
    assert report.fusion_class_count == 5
    assert len(report.atoms) == 6
    assert report.timings  # full JSON carries timings
    # canonical payload is timing-free and stable
    r2 = run_analysis(
        catalog.load_group("S9"), 3, name="S9", source="catalog"
    )
    assert report.canonical_bytes() == r2.canonical_bytes()


def test_group_file_input(tmp_path, capsys):
    f = tmp_path / "sym3.txt"
    f.write_text("# symmetric group on three points\n(1,2)\n(1,2,3)\n")
    code, out, _ = run_cli(capsys, "run", "--group", str(f), "--prime", "3")
    assert code == EXIT_OK
    assert "fusion classes   2" in out


def test_group_file_with_degree_header(tmp_path, capsys):
    f = tmp_path / "c2.txt"
    f.write_text("degree 4\n(1,2)\n")
    code, out, _ = run_cli(capsys, "run", "--group", str(f), "--prime", "2")
    assert code == EXIT_OK
    assert "degree 4" in out


@pytest.mark.parametrize("degree", [10**11, 10**6])
def test_exit_code_degree_cap(tmp_path, capsys, degree):
    """A degree header above the cap stops before any permutation is
    built: 10^11 points once ended in a MemoryError traceback, and C3 on
    10^6 points took 752 MB."""
    f = tmp_path / "big.txt"
    f.write_text(f"degree {degree}\n(1,2,3)\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", "--group", str(f), "--prime", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CAP
    assert f"cap exceeded: degree {degree} exceeds cap 100000" in err
    assert out == ""
    assert peak < 10**6


@pytest.mark.parametrize("header", ["degree \u00b2", "degree \u00b3", "degree \uff14"])
def test_exit_code_degree_header_not_ascii(tmp_path, capsys, header):
    """Superscript digits pass str.isdigit but not int, and once ended
    in a ValueError traceback; a fullwidth 4 passes both.  Only ASCII
    digits are a degree."""
    f = tmp_path / "c2.txt"
    f.write_text(f"{header}\n(1,2)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--group", str(f), "--prime", "2")
    assert code == EXIT_INPUT
    assert f"input error: bad degree header: {header!r}" in err
    assert out == ""


def test_exit_code_group_and_partition_file_not_utf8(tmp_path, capsys):
    """Bytes that are not UTF-8 once ended in a UnicodeDecodeError traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\n(1,2)\n")
    code, out, err = run_cli(capsys, "run", "--group", str(bad), "--prime", "2")
    assert (code, out) == (EXIT_INPUT, "") and "cannot read group file" in err
    code, out, err = run_cli(capsys, "run", "--group", "S4", "--prime", "2", "--partition", str(bad))
    assert (code, out) == (EXIT_INPUT, "") and "cannot read partition file" in err


def test_degree_at_the_cap_is_read(tmp_path):
    f = tmp_path / "c2.txt"
    f.write_text("degree 100000\n(1,2)\n")
    [g], degree = read_generator_file(f)
    assert degree == len(g) == 100000 and g[:3] == (1, 0, 2)


def test_partition_run(tmp_path, capsys):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([[1], list(range(2, 30))]))
    code, out, _ = run_cli(
        capsys, "run", "--group", "E125", "--partition", str(part)
    )
    assert code == EXIT_OK
    assert "fusion classes   2" in out
    assert "transitive       True" in out
    assert "dim  124" in out


def test_exit_code_unknown_group(capsys):
    code, _, err = run_cli(capsys, "run", "--group", "NOPE", "--prime", "2")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_internal_error_is_not_input_error(monkeypatch, capsys):
    import fmrep.cli

    def broken(pattern, table):
        raise ValueError("internal fault")

    monkeypatch.setattr(fmrep.cli, "rep_lattice", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["run", "--group", "S4", "--prime", "2"])
    assert "input error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--group", "S4"], ["verify", "--tier", "fast"]])
def test_exit_code_failed_certificate(monkeypatch, capsys, argv):
    import fmrep.repring

    real = fmrep.repring.integer_kernel
    monkeypatch.setattr(fmrep.repring, "integer_kernel", lambda A: real(A)[:-1])
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CERTIFICATE
    assert "certificate failed: lattice rank" in err


@pytest.mark.parametrize("argv", [["run", "--group", "S4"], ["verify"]])
def test_exit_code_catalog_order_mismatch(monkeypatch, capsys, argv):
    """An asset order that the generators do not give is a failed
    certificate, not a traceback."""
    real = catalog._parse_asset()
    wrong = {**real, "S4": {**real["S4"], "order": 12}}
    monkeypatch.setattr(catalog, "_parse_asset", lambda: wrong)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_CERTIFICATE
    assert "certificate failed: catalog entry S4: generators give order 24, asset says 12" in err


def test_exit_code_failed_table_certificate(monkeypatch, capsys):
    import fmrep.chartab

    # identity class matrices split no eigenspace
    monkeypatch.setattr(fmrep.chartab, "_class_matrix",
                        lambda elements, reps, lookup: [((m, 1),) for m in range(len(reps))])
    code, _, err = run_cli(capsys, "run", "--group", "S4")
    assert code == EXIT_CERTIFICATE
    assert "certificate failed: class matrices do not split" in err


def test_exit_code_bad_prime(capsys):
    code, _, err = run_cli(capsys, "run", "--group", "S4", "--prime", "6")
    assert code == EXIT_INPUT
    assert "6 is not prime" in err


def test_exit_code_prime_not_dividing(capsys):
    code, _, err = run_cli(capsys, "run", "--group", "S4", "--prime", "7")
    assert code == EXIT_INPUT


def test_exit_code_huge_prime_not_dividing(monkeypatch, capsys):
    """A prime that does not divide |G| is rejected before the primality
    test, whose trial division would take minutes at this size."""
    import fmrep.cli

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(fmrep.cli, "is_prime", no_trial_division)
    code, _, err = run_cli(capsys, "run", "--group", "S4", "--prime", "1000000000000000003")
    assert code == EXIT_INPUT
    assert "1000000000000000003 does not divide the group order 24" in err


def test_exit_code_huge_prime_on_the_trivial_group(tmp_path, monkeypatch, capsys):
    """With --partition the trivial group is a p-group for every p, so a
    huge prime reaches the primality test; its trial division would take
    more than DEGREE_CAP steps, and the run stops at that cap first."""
    import fmrep.cli

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called")

    group, part = tmp_path / "trivial.txt", tmp_path / "partition.json"
    group.write_text("degree 3\n()\n")
    part.write_text("[[1]]")
    monkeypatch.setattr(fmrep.cli, "is_prime", no_trial_division)
    code, _, err = run_cli(
        capsys, "run", "--group", str(group), "--prime", "1000000000000000003", "--partition", str(part)
    )
    assert code == EXIT_CAP
    assert "trial division exceeds cap 100000 steps" in err
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "run", "--group", str(group), "--prime", "1000003", "--partition", str(part))
    assert code == EXIT_OK


def test_exit_code_bad_partition(tmp_path, capsys):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([[1, 2]]))
    code, _, err = run_cli(
        capsys, "run", "--group", "E125", "--partition", str(part)
    )
    assert code == EXIT_INPUT


def test_exit_code_partition_not_power_stable(tmp_path, capsys):
    # x -> x^2 maps classes 2, 3 of C5 to classes 3, 5, in different blocks
    group = tmp_path / "c5.txt"
    group.write_text("(1,2,3,4,5)\n")
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([[1], [2, 3], [4, 5]]))
    code, _, err = run_cli(
        capsys, "run", "--group", str(group), "--prime", "5", "--partition", str(part)
    )
    assert code == EXIT_INPUT
    assert "power map x -> x^2" in err and "block [2, 3]" in err


def test_exit_code_partition_empty_block(tmp_path, capsys):
    group = tmp_path / "c3.txt"
    group.write_text("(1,2,3)\n")
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([[1], [], [2, 3]]))
    code, out, err = run_cli(
        capsys, "run", "--group", str(group), "--prime", "3", "--partition", str(part)
    )
    assert code == EXIT_INPUT
    assert "input error: block 2 is empty" in err
    assert "partition input" not in out


def _symmetric_file(tmp_path, n):
    f = tmp_path / f"s{n}.txt"
    f.write_text("(1,2)\n(" + ",".join(map(str, range(1, n + 1))) + ")\n")
    return f


def test_exit_code_sylow_stream_cap(monkeypatch, tmp_path, capsys):
    # S11 at p = 2 passes the Sylow stage under the real cap (6.8e4 node-points)
    monkeypatch.setattr(permcore, "SYLOW_STREAM_CAP", 10**4)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "run", "--group", str(_symmetric_file(tmp_path, 11)), "--prime", "2")
    assert code == EXIT_CAP
    assert "cap exceeded: sylow: lex walk exceeds cap 10000 node-points" in err
    assert time.perf_counter() - start < 1.0


def test_exit_code_class_count_cap(tmp_path, capsys):
    # C2^10: |S| = 1024 passes the order cap, its 1024 classes do not
    f = tmp_path / "c2_10.txt"
    f.write_text("".join(f"({2 * i + 1},{2 * i + 2})\n" for i in range(10)))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "run", "--group", str(f), "--prime", "2")
    assert code == EXIT_CAP
    assert "cap exceeded: class count 1024 exceeds table cap" in err
    assert time.perf_counter() - start < 1.0


def test_s11_at_3_descends_below_the_cap(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", "--group", str(_symmetric_file(tmp_path, 11)), "--prime", "3", "--mode", "fusion"
    )
    assert code == EXIT_OK
    assert "fusion classes   5" in out


def test_s10_and_s11_at_2_share_the_fusion_pattern(tmp_path, capsys):
    payloads = []
    for n in (10, 11):
        out_file = tmp_path / f"s{n}.json"
        code, out, _ = run_cli(
            capsys, "run", "--group", str(_symmetric_file(tmp_path, n)), "--prime", "2",
            "--mode", "fusion", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert "fusion classes   14" in out
        payloads.append(json.loads(out_file.read_text()))
    for data in payloads:
        assert (data["sylow_order"], data["sylow_class_count"]) == (256, 40)
    assert payloads[0]["fusion_labels"] == payloads[1]["fusion_labels"]


def test_partition_requires_p_group(tmp_path, capsys):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps([[1], [2]]))
    code, _, err = run_cli(
        capsys, "run", "--group", "S4", "--partition", str(part)
    )
    assert code == EXIT_INPUT


def test_exit_code_conjugacy_cap(monkeypatch, capsys):
    monkeypatch.setattr(permcore, "CONJUGACY_CAP", 16)
    code, _, err = run_cli(capsys, "run", "--group", "M10")
    assert code == EXIT_CAP
    assert "cap exceeded: fusion: conjugacy search exceeds cap 16 node-points" in err


def test_verify_exit_code_conjugacy_cap(monkeypatch, capsys):
    # verify and run map errors to exit codes in one except chain
    monkeypatch.setattr(permcore, "CONJUGACY_CAP", 16)
    code, _, err = run_cli(capsys, "verify", "--tier", "fast")
    assert code == EXIT_CAP
    assert "cap exceeded: fusion: conjugacy search exceeds cap 16 node-points" in err


def test_stretch_psu3_9_meets_its_expectation():
    """The stretch entry PSU3_9 (|G| = 42,573,600, |S| = 32) runs through
    the whole pipeline in a few seconds and gives its catalog values."""
    entry = catalog.CATALOG["PSU3_9"]
    assert entry.tier == "stretch"
    report = run_analysis(catalog.load_group("PSU3_9"), entry.prime, name="PSU3_9")
    computed = (report.fusion_class_count, len(report.atoms), report.factorial)
    assert entry.prime == 2
    assert computed == (entry.expect.classes, entry.expect.atoms, entry.expect.factorial) == (9, 53, False)


def test_stretch_psl3_19_meets_its_expectation():
    """The stretch entry PSL3_19 (|G| = 5,644,682,640 on 381 points, |S| = 81)
    runs through the whole pipeline in a few seconds and gives its catalog
    values."""
    entry = catalog.CATALOG["PSL3_19"]
    assert entry.tier == "stretch"
    report = run_analysis(catalog.load_group("PSL3_19"), entry.prime, name="PSL3_19")
    computed = (report.fusion_class_count, len(report.atoms), report.factorial)
    assert entry.prime == 3
    assert computed == (entry.expect.classes, entry.expect.atoms, entry.expect.factorial) == (7, 16, False)


def test_stretch_psl4_7_stops_at_the_sylow_cap(capsys):
    """The stretch entry PSL4_7 (degree 400) needs a walk to the lex-least
    element of order 9 far past the cap; the cap, in node-points, stops
    the whole run in about 4.5 s on a 2-core x86-64 VM."""
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "run", "--group", "PSL4_7")
    assert code == EXIT_CAP
    assert "cap exceeded: sylow: lex walk exceeds cap 50000000 node-points" in err
    assert time.perf_counter() - start < 15.0


def test_exit_code_report_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code, _, err = run_cli(capsys, "run", "--group", "S3", "--out", str(out))
    assert code == EXIT_INPUT
    assert f"input error: cannot write report {out}" in err
    assert not out.exists()


def test_exit_code_boolean_class_index(tmp_path, capsys):
    group = tmp_path / "c2.txt"
    group.write_text("(1,2)\n")
    part = tmp_path / "partition.json"
    part.write_text("[[true],[2]]")
    code, out, err = run_cli(
        capsys, "run", "--group", str(group), "--prime", "2", "--partition", str(part)
    )
    assert code == EXIT_INPUT
    assert "partition must be a list of lists of integers" in err
    assert out == ""


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == EXIT_OK
    for name in catalog.CATALOG:
        assert name in out


def test_verify_fast_tier(capsys):
    code, out, err = run_cli(capsys, "verify", "--tier", "fast")
    assert code == EXIT_OK
    assert "MISMATCH" not in out


def test_verify_detects_mismatch(monkeypatch, capsys):
    wrong = catalog.CatalogEntry(
        "S4", 2, "fast", catalog.Expectation(4, 5, True, True), "d8"
    )
    monkeypatch.setitem(catalog.CATALOG, "S4", wrong)
    code, out, err = run_cli(capsys, "verify", "--tier", "fast")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out
    assert "expected 5, computed 4" in out


def test_run_analysis_labels_attached():
    report = run_analysis(
        catalog.load_group("S4"), 2, name="S4", source="catalog", label_style="d8"
    )
    assert report.irr_names is not None
    assert set(report.irr_names) == {"1", "X", "Y", "XY", "Z"}
    text = report.to_text()
    assert "[" in text  # labeled rendering present


@st.composite
def cycle_lines(draw):
    """A generator line on points 1..8: disjoint cycles, about one in four
    broken (a point 0 or 9, a repeated point, a missing bracket, a
    letter, overlapping cycles, a non-ASCII digit)."""
    points = draw(st.permutations(range(1, 9)))
    cuts = sorted(draw(st.sets(st.integers(1, 7), max_size=4)))
    blocks = [points[a:b] for a, b in zip([0, *cuts], [*cuts, 8])]
    cycles = [b for b in blocks[: draw(st.integers(1, len(blocks)))] if len(b) > 1]
    line = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles) or "()"
    faults = {
        "0": "(1,0)", "9": "(1,9)", "repeat": "(2,2)", "letter": "(a,b)",
        "overlap": "(1,2)(2,3)", "superscript": "(1,\u00b2)", "open": "(1,2",
    }
    fault = draw(st.sampled_from([None] * 21 + sorted(faults)))
    return line if fault is None else line + faults[fault]


@st.composite
def group_files(draw):
    """1-3 generator lines after an optional `degree` header (valid, too
    small, malformed or above the degree cap), with comments and blank
    lines between them."""
    header = draw(st.sampled_from(
        [None] * 4 + ["degree 8", "degree 12", "degree 3", "degree", "degree x",
                      "degree 3 4", "DEGREE 9", "degree \u00b3", "degree 1000000"]
    ))
    lines = [] if header is None else [header]
    for _ in range(draw(st.integers(1, 3))):
        lines += draw(st.sampled_from([[], [], ["# a comment"], [""]])) + [draw(cycle_lines())]
    return "\n".join(lines) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
partitions = st.lists(st.lists(st.integers(0, 12), max_size=4), max_size=6) | json_values


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=group_files(),
    prime=st.sampled_from([2, 3] * 3 + [5, 7, None, 0, 1, 4]),
    partition=st.booleans().flatmap(lambda on: partitions if on else st.none()),
)
def test_input_files_end_in_a_documented_exit(text, prime, partition):
    """Any group file of degree <= 8 (headers, comments, blank lines,
    malformed cycles) with any JSON partition file ends in exit 0, 2 or
    3: input errors and caps, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        group = Path(tmp) / "group.txt"
        group.write_text(text, encoding="utf-8")
        argv = ["run", "--group", str(group)]
        if prime is not None:
            argv += ["--prime", str(prime)]
        if partition is not None:
            part = Path(tmp) / "partition.json"
            part.write_text(json.dumps(partition), encoding="utf-8")
            argv += ["--partition", str(part)]
        code = main(argv)
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CAP)
