import itertools
import os
import random
import signal
import stat
import subprocess
import sys
import threading

import pytest

import calcverify.quadrature
from calcverify import (
    DomainError,
    QuadratureRule,
    TableError,
    gauss_rule,
    get_or_build,
    load_tables,
    save_tables,
)
from calcverify.cli import main
from calcverify.tables import dumps_tables, gauss_violation, rule_violation

# Passes every invariant of rule_violation (weights sum to 2, zero first
# moment, symmetric) but is not the 2-point Gauss rule: it integrates x^2
# over [-1, 1] to 0.5 instead of 2/3.
NOT_GAUSS_2 = "GAUSSTAB 1\nN 2\n-0.5 1\n0.5 1\n"


def test_round_trip_bit_exact_all_orders(tmp_path):
    path = tmp_path / "rules.gausstab"
    rules = [gauss_rule(n) for n in range(1, 65)]
    save_tables(rules, path)
    loaded = load_tables(path)
    assert sorted(loaded) == list(range(1, 65))
    for rule in rules:
        assert loaded[rule.n].nodes == rule.nodes
        assert loaded[rule.n].weights == rule.weights


def test_single_point_rule_layout(tmp_path):
    path = tmp_path / "one.gausstab"
    save_tables([gauss_rule(1)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "GAUSSTAB 1"
    assert lines[1] == "N 1"
    assert lines[2] == "0 2"


def test_three_point_weights_parse_back(tmp_path):
    path = tmp_path / "three.gausstab"
    save_tables([gauss_rule(3)], path)
    weights = load_tables(path)[3].weights
    assert abs(weights[0] - 5 / 9) <= 1e-16
    assert abs(weights[1] - 8 / 9) <= 1e-16
    assert abs(weights[2] - 5 / 9) <= 1e-16


def test_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "clean.gausstab"
    save_tables([gauss_rule(2)], path)
    save_tables([gauss_rule(2), gauss_rule(4)], path)
    assert os.listdir(tmp_path) == ["clean.gausstab"]


def test_save_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "rules.gausstab"
    save_tables([gauss_rule(2)], path)
    assert load_tables(path)[2] == gauss_rule(2)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tables(tmp_path / "absent.gausstab")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "empty"),
        ("NOPE 1\n", "not a rule table"),
        ("GAUSSTAB 2\n", "version"),
        ("GAUSSTAB 1\nX 2\n", ":2:"),
        ("GAUSSTAB 1\nN zero\n", ":2:"),
        ("GAUSSTAB 1\nN 0\n", "positive"),
        ("GAUSSTAB 1\nN 1\n0 2\nN 1\n0 2\n", "duplicate"),
        ("GAUSSTAB 1\nN 2\nhello 1\n0.5 1\n", ":3:"),
        ("GAUSSTAB 1\nN 1\n0 2 9\n", ":3:"),
    ],
)
def test_load_malformed(tmp_path, text, needle):
    path = tmp_path / "bad.gausstab"
    path.write_text(text)
    with pytest.raises(TableError) as info:
        load_tables(path)
    assert needle in str(info.value)


def test_load_truncated_block_reports_line(tmp_path):
    path = tmp_path / "trunc.gausstab"
    path.write_text("GAUSSTAB 1\nN 3\n0.1 0.2\n")
    with pytest.raises(TableError) as info:
        load_tables(path)
    message = str(info.value)
    assert ":4:" in message and "truncated" in message and "n=3" in message


@pytest.mark.parametrize(
    "body,needle",
    [
        ("N 1\n0 3\n", "sum"),  # weights sum to 3, not 2
        ("N 1\n0 -2\n", "non-positive"),
        ("N 1\n1.5 2\n", "interval"),
        ("N 2\n0.5 1\n-0.5 1\n", "ascending"),
        ("N 2\n-0.5 1.2\n0.6 0.8\n", "n=2"),
        ("N 2\n-0.5 1e308\n0.5 1e308\n", "exceeds 2"),  # their sum overflows fsum
        ("N 3\n-0.5 0.6\n0 0.9\n0.6 0.5\n", "weights are not symmetric at index 0"),
    ],
)
def test_load_invariant_violations(tmp_path, body, needle):
    path = tmp_path / "invalid.gausstab"
    path.write_text("GAUSSTAB 1\n" + body)
    with pytest.raises(TableError) as info:
        load_tables(path)
    assert needle in str(info.value)


def test_dumps_round_trips_through_nodes_format():
    text = dumps_tables([gauss_rule(5), gauss_rule(2)])
    lines = text.splitlines()
    assert lines[0] == "GAUSSTAB 1"
    assert lines[1] == "N 2"  # sorted ascending regardless of input order


def test_get_or_build_cold_then_warm(tmp_path, monkeypatch):
    path = tmp_path / "cache.gausstab"
    builds = []
    real = calcverify.quadrature.gauss_rule

    def counting(n):
        builds.append(n)
        return real(n)

    monkeypatch.setattr(calcverify.quadrature, "gauss_rule", counting)
    first = get_or_build(path, 3)
    assert builds == [3]
    assert first == real(3)
    second = get_or_build(path, 3)
    assert builds == [3]  # warm cache: no rebuild
    assert second == first


def test_get_or_build_appends_new_orders(tmp_path):
    path = tmp_path / "cache.gausstab"
    get_or_build(path, 2)
    get_or_build(path, 5)
    loaded = load_tables(path)
    assert sorted(loaded) == [2, 5]


def test_get_or_build_recovers_from_corruption(tmp_path, capsys):
    path = tmp_path / "cache.gausstab"
    path.write_text("GAUSSTAB 1\nN 1\n0 3\n")
    rule = get_or_build(path, 2)
    assert rule == gauss_rule(2)
    err = capsys.readouterr().err
    assert "warning" in err and "corrupt" in err
    assert load_tables(path)[2] == gauss_rule(2)  # rebuilt from scratch


def test_get_or_build_recovers_from_binary_garbage(tmp_path, capsys):
    path = tmp_path / "cache.gausstab"
    path.write_bytes(b"\xff\xfe\x00 garbage")
    rule = get_or_build(path, 4)
    assert rule == gauss_rule(4)
    assert "warning" in capsys.readouterr().err
    assert load_tables(path)[4] == gauss_rule(4)


def test_gauss_violation_accepts_every_built_rule():
    for n in range(1, 65):
        assert gauss_violation(gauss_rule(n)) is None


def test_gauss_violation_rejects_wrong_nodes_and_weights():
    rule = QuadratureRule(n=2, nodes=(-0.5, 0.5), weights=(1.0, 1.0))  # NOT_GAUSS_2's rule
    assert rule_violation(rule) is None
    assert "not a root of P_2" in gauss_violation(rule)
    # shift weight between the two symmetric pairs of the 4-point rule:
    # the sum, the first moment and the symmetry all still hold
    good = gauss_rule(4)
    d = 1e-10
    weights = (good.weights[0] + d, good.weights[1] - d, good.weights[2] - d, good.weights[3] + d)
    bad = QuadratureRule(n=4, nodes=good.nodes, weights=weights)
    assert rule_violation(bad) is None
    assert "is not 2 / ((1 - x^2) P_4'(x)^2)" in gauss_violation(bad)


def test_load_tables_rejects_a_rule_that_is_not_gauss(tmp_path):
    path = tmp_path / "rules.gausstab"
    path.write_text(NOT_GAUSS_2)
    with pytest.raises(TableError) as info:
        load_tables(path)
    assert str(info.value).endswith("rule n=2 is not a Gauss rule: node -0.5 is not a root of P_2")


def test_get_or_build_rebuilds_a_cached_rule_that_is_not_gauss(tmp_path, capsys):
    path = tmp_path / "cache.gausstab"
    path.write_text(NOT_GAUSS_2)
    rule = get_or_build(path, 2)
    assert rule == gauss_rule(2)
    err = capsys.readouterr().err
    assert "warning" in err and "not a Gauss rule" in err
    assert load_tables(path)[2] == gauss_rule(2)


# A cache path that names no regular file.  Every path here is made under
# tmp_path; a real device is never used.
needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@needs_fifo
def test_cli_cache_on_a_fifo_exits_2_without_waiting(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = [sys.executable, "-m", "calcverify.cli", "integrate", "x", "x", "0", "1"]
    env = dict(os.environ, PYTHONPATH=SRC, CALCVERIFY_CACHE=str(fifo))
    # a regression would block on open() for a writer: the timeout fails it
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"io error: {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.fixture
def deadline():
    # a call that blocks on a FIFO fails the test instead of hanging it
    def expire(signum, frame):
        raise TimeoutError("blocked on a FIFO")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@needs_fifo
def test_load_and_save_refuse_a_fifo(tmp_path, deadline):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        load_tables(fifo)
    with pytest.raises(OSError, match="not a regular file"):
        save_tables([gauss_rule(2)], fifo)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]  # no temp file left behind


def test_get_or_build_writes_through_a_symlink(tmp_path):
    target = tmp_path / "rules.gausstab"
    save_tables([gauss_rule(2)], target)
    link = tmp_path / "link.gausstab"
    link.symlink_to(target)
    assert get_or_build(link, 3) == gauss_rule(3)
    assert os.path.islink(link) and os.readlink(link) == str(target)
    assert sorted(load_tables(target)) == [2, 3]
    # and a hit reads through it
    assert get_or_build(link, 2) == gauss_rule(2)


def test_get_or_build_creates_the_target_of_a_dangling_symlink(tmp_path):
    link = tmp_path / "link.gausstab"
    link.symlink_to(tmp_path / "sub" / "rules.gausstab")
    assert get_or_build(link, 4) == gauss_rule(4)
    assert os.path.islink(link)
    assert sorted(load_tables(tmp_path / "sub" / "rules.gausstab")) == [4]


def test_save_refuses_to_replace_a_symlink(tmp_path):
    target = tmp_path / "rules.gausstab"
    save_tables([gauss_rule(2)], target)
    link = tmp_path / "link.gausstab"
    link.symlink_to(target)
    with pytest.raises(OSError, match="not a regular file"):
        save_tables([gauss_rule(3)], link)
    assert os.path.islink(link) and sorted(load_tables(target)) == [2]


def test_save_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "rules.gausstab"

    def fail(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(PermissionError, match="rename refused"):
        save_tables([gauss_rule(2)], path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("through_link", [False, True])
def test_a_rewritten_cache_keeps_its_mode(tmp_path, through_link):
    target = tmp_path / "rules.gausstab"
    save_tables([gauss_rule(2)], target)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600  # as save_tables creates a new file
    os.chmod(target, 0o644)
    cache = target
    if through_link:
        cache = tmp_path / "link.gausstab"
        cache.symlink_to(target)
    assert get_or_build(cache, 3) == gauss_rule(3)  # a miss rewrites the file
    assert sorted(load_tables(target)) == [2, 3]
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o644


def test_a_hit_reads_only_its_own_block(tmp_path, monkeypatch, capsys):
    # the block for n=1 breaks an invariant, which a hit on n=2 never parses:
    # it returns the rule and leaves the file as it was
    path = tmp_path / "cache.gausstab"
    text = "GAUSSTAB 1\nN 1\n0 3\n" + dumps_tables([gauss_rule(2)]).split("\n", 1)[1]
    path.write_text(text)

    def refuse(*args):
        raise AssertionError("a hit loaded or wrote the whole file")

    monkeypatch.setattr(calcverify.tables, "load_tables", refuse)
    monkeypatch.setattr(calcverify.tables, "save_tables", refuse)
    assert get_or_build(path, 2) == gauss_rule(2)
    assert capsys.readouterr().err == ""
    assert path.read_text() == text


def test_a_hit_missed_by_the_block_search_is_read_through_the_full_parse(tmp_path, capsys):
    # "N 03" still names the 3-point rule, but the one-block search looks for
    # "N 3": the whole file is parsed, and the rule comes back unrewritten
    path = tmp_path / "cache.gausstab"
    save_tables([gauss_rule(3)], path)
    path.write_text(path.read_text().replace("\nN 3\n", "\nN 03\n"))
    before = path.read_bytes(), os.stat(path).st_mtime_ns
    bits = lambda rule: (rule.n, [v.hex() for v in rule.nodes + rule.weights])
    assert bits(get_or_build(path, 3)) == bits(gauss_rule(3))
    assert capsys.readouterr().err == ""
    assert (path.read_bytes(), os.stat(path).st_mtime_ns) == before


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_cache_with_other_line_ends_gives_the_same_rule(tmp_path, monkeypatch, capsys, newline):
    # the file is read as bytes, and its line ends read as text mode read
    # them: the block search finds the rule, so a hit rewrites nothing
    lf = tmp_path / "lf.gausstab"
    save_tables([gauss_rule(3), gauss_rule(5)], lf)
    path = tmp_path / "other.gausstab"
    path.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
    before = path.read_bytes()

    def refuse(*args):
        raise AssertionError("a hit loaded or wrote the whole file")

    monkeypatch.setattr(calcverify.tables, "load_tables", refuse)
    monkeypatch.setattr(calcverify.tables, "save_tables", refuse)
    bits = lambda rule: (rule.n, [v.hex() for v in rule.nodes + rule.weights])
    assert bits(get_or_build(path, 5)) == bits(get_or_build(lf, 5)) == bits(gauss_rule(5))
    outputs = []
    for cache in (lf, path):
        monkeypatch.setenv("CALCVERIFY_CACHE", str(cache))
        assert main(["integrate", "x^8", "x", "-1", "1", "--n", "5", "--json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[1].err == ""
    assert path.read_bytes() == before


def test_a_cache_that_is_not_ascii_is_a_table_error(tmp_path):
    # the position counts from the start of the file
    path = tmp_path / "cache.gausstab"
    text = dumps_tables([gauss_rule(2)])
    path.write_bytes(text.encode() + b"\xc3\xa9\n")
    with pytest.raises(TableError, match=rf"not a text table .* 0xc3 in position {len(text)}: "):
        load_tables(path)


def test_rule_violation_counts_the_node_weight_pairs():
    rule = QuadratureRule(n=3, nodes=(0.0,), weights=(2.0,))
    assert rule_violation(rule) == "expected 3 node/weight pairs, found 1 nodes and 1 weights"
    # counts that disagree are both named
    rule = QuadratureRule(3, (-0.5, 0.0, 0.5), (0.6, 0.8))
    assert rule_violation(rule) == "expected 3 node/weight pairs, found 3 nodes and 2 weights"


def test_a_rule_whose_counts_disagree_is_never_written(tmp_path):
    # its N 3 block would hold 2 lines, which load_tables rejects as truncated
    rule = QuadratureRule(3, (-0.5, 0.0, 0.5), (0.6, 0.8))
    with pytest.raises(DomainError, match=r"^rule n=3 has 3 nodes and 2 weights$"):
        dumps_tables([gauss_rule(2), rule])
    path = tmp_path / "dir" / "cache.gausstab"
    with pytest.raises(DomainError):
        save_tables([rule], path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text",
    [
        dumps_tables([gauss_rule(2)]) + dumps_tables([gauss_rule(2)]).split("\n", 1)[1],
        dumps_tables([gauss_rule(3)]).rsplit("\n", 2)[0] + "\n",
        dumps_tables([gauss_rule(3)]).replace("\nN 3\n", "\nN 3\nN 4\n"),
    ],
    ids=["duplicate", "truncated", "header-in-block"],
)
def test_a_bad_target_block_is_rebuilt_with_a_warning(tmp_path, capsys, text):
    path = tmp_path / "cache.gausstab"
    path.write_text(text)
    n = int(text.split("\n")[1].split()[1])
    assert get_or_build(path, n) == gauss_rule(n)
    assert "warning: discarding corrupt rule cache" in capsys.readouterr().err
    assert load_tables(path) == {n: gauss_rule(n)}



def block(n):
    # the "N n" line of the n-point rule and its n rows
    return dumps_tables([gauss_rule(n)]).split("\n", 1)[1]


@pytest.mark.parametrize(
    "text",
    [
        dumps_tables([gauss_rule(2)]) + "N x\n",
        dumps_tables([gauss_rule(2)]) + "N 0\n",
        "GAUSSTAB 1\n" + block(1) + block(1) + block(2),
        "GAUSSTAB 1\n" + block(3).rsplit("\n", 2)[0] + "\n" + block(2),
        dumps_tables([gauss_rule(2)]) + "N 5\n0 1\n",
    ],
    ids=[
        "bad-header", "non-positive-header", "repeated-header", "earlier-block-one-row-short", "later-block-truncated"
    ],
)
def test_a_hit_reads_every_header(tmp_path, capsys, text):
    # the 2-point block holds the Gauss rule, but a header elsewhere is bad, repeated
    # or out of step with the rows around it: a hit finds it and rebuilds the cache
    path = tmp_path / "cache.gausstab"
    path.write_text(text)
    assert get_or_build(path, 2) == gauss_rule(2)
    assert "warning: discarding corrupt rule cache" in capsys.readouterr().err
    assert load_tables(path) == {2: gauss_rule(2)}


def hexbits(rules):
    return {n: [v.hex() for v in rule.nodes + rule.weights] for n, rule in rules.items()}


@pytest.mark.parametrize("other", [7, 5], ids=["another-rule", "the-same-rule"])
def test_a_rule_another_writer_adds_during_a_miss_is_kept(tmp_path, monkeypatch, other):
    # a second writer renames its file into place after this miss has read the
    # cache and before it writes: the miss adds to that file, and writes
    # nothing if it already holds the rule
    path = tmp_path / "cache.gausstab"
    save_tables([gauss_rule(2)], path)
    real = calcverify.quadrature.gauss_rule
    seen = []

    def racing(n):
        save_tables([real(2), real(other)], path)
        seen.append((path.read_bytes(), os.stat(path).st_mtime_ns))
        return real(n)

    monkeypatch.setattr(calcverify.quadrature, "gauss_rule", racing)
    assert get_or_build(path, 5) == real(5)
    assert sorted(load_tables(path)) == sorted({2, 5, other})
    assert ((path.read_bytes(), os.stat(path).st_mtime_ns) == seen[0]) == (other == 5)
    assert os.listdir(tmp_path) == ["cache.gausstab"]


def test_a_cache_made_corrupt_during_a_miss_is_rebuilt_with_a_warning(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cache.gausstab"
    save_tables([gauss_rule(2)], path)
    real = calcverify.quadrature.gauss_rule

    def racing(n):
        path.write_text("GAUSSTAB 1\nN 1\n0 3\n")
        return real(n)

    monkeypatch.setattr(calcverify.quadrature, "gauss_rule", racing)
    assert get_or_build(path, 5) == real(5)
    assert "warning: discarding corrupt rule cache" in capsys.readouterr().err
    assert path.read_text() == dumps_tables([real(5)])


def test_concurrent_writers_keep_each_others_rules(tmp_path):
    # eight processes miss on one empty cache at once, each for its own n; every
    # child waits on its stdin until all eight have imported, so their reads overlap
    path = tmp_path / "cache.gausstab"
    code = "import sys; from calcverify.tables import get_or_build; sys.stdin.read(); get_or_build(sys.argv[1], int(sys.argv[2]))"
    env = dict(os.environ, PYTHONPATH=SRC)
    orders = range(20, 28)
    procs = [
        subprocess.Popen([sys.executable, "-S", "-c", code, str(path), str(n)], env=env, stdin=subprocess.PIPE)
        for n in orders
    ]
    try:
        for proc in procs:
            proc.stdin.close()
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert hexbits(load_tables(path)) == hexbits({n: gauss_rule(n) for n in orders})
    assert os.listdir(tmp_path) == ["cache.gausstab"]


def test_concurrent_threads_keep_each_others_rules(tmp_path):
    # each miss opens the directory anew, so threads of one process exclude each
    # other too; a short switch interval interleaves their reads and writes
    path = tmp_path / "cache.gausstab"
    orders = range(30, 38)
    errors = []

    def write(n):
        try:
            get_or_build(path, n)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(n,)) for n in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert hexbits(load_tables(path)) == hexbits({n: gauss_rule(n) for n in orders})


@pytest.mark.parametrize("guarded", [False, True], ids=["bytes", "formats-only-its-own-rule"])
def test_a_miss_writes_what_dumps_tables_writes(tmp_path, monkeypatch, guarded):
    # a seeded run of misses on a canonical cache inserts first, in the middle
    # and last; after each the file is byte for byte dumps_tables of its rules.
    # Guarded, a miss may neither rewrite the cache through save_tables nor
    # format any rule but its own
    path = tmp_path / "cache.gausstab"
    save_tables([gauss_rule(20), gauss_rule(40)], path)
    orders = [10, 30, 50] + random.Random(35).sample([n for n in range(1, 65) if n not in (10, 20, 30, 40, 50)], 12)
    formatted = []
    if guarded:

        def own_rule_only(rules):
            rules = list(rules)
            formatted.append([rule.n for rule in rules])
            return dumps_tables(rules)

        def refuse(*args):
            raise AssertionError("a miss rewrote the whole cache")

        monkeypatch.setattr(calcverify.tables, "save_tables", refuse)
        monkeypatch.setattr(calcverify.tables, "dumps_tables", own_rule_only)
    for i, n in enumerate(orders, 1):
        assert get_or_build(path, n) == gauss_rule(n)
        assert path.read_text() == dumps_tables(load_tables(path).values())
        if guarded:
            assert formatted == [[m] for m in orders[:i]]
    assert sorted(load_tables(path)) == sorted(orders + [20, 40])


def test_a_miss_keeps_the_other_blocks_as_written(tmp_path):
    # a valid hand-written cache: CRLF line ends, an 'N 03' header, shortest-repr
    # digits and blocks out of order. A miss keeps each block's rows as written,
    # now with LF line ends, and inserts the new canonical block before the first
    # block with a larger n
    def rows(n):
        rule = gauss_rule(n)
        return [f"{x!r} {w!r}" for x, w in zip(rule.nodes, rule.weights)]

    lines = ["GAUSSTAB 1", "N 5", *rows(5), "N 03", *rows(3), "N 1", "0 2", "N 2", *rows(2)]
    path = tmp_path / "cache.gausstab"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    before = hexbits(load_tables(path))
    assert get_or_build(path, 4) == gauss_rule(4)
    new_block = dumps_tables([gauss_rule(4)]).splitlines()[1:]
    assert path.read_bytes() == "\n".join(lines[:1] + new_block + lines[1:]).encode() + b"\n"
    after = hexbits(load_tables(path))
    assert after == {**before, 4: hexbits({4: gauss_rule(4)})[4]}


@pytest.mark.parametrize("n, at", [(4, 1), (6, 3), (1, 0), (7, 4)])
def test_a_miss_goes_before_the_first_larger_block_in_file_order(tmp_path, n, at):
    # blocks out of order: the walk through them in file order stops at the
    # first block of more points than n, or reaches the end, though a smaller
    # block may follow the one it stopped at
    order = [2, 5, 3, 6 if n != 6 else 8]
    blocks = [dumps_tables([gauss_rule(k)]).splitlines()[1:] for k in order]
    path = tmp_path / "cache.gausstab"
    path.write_text("\n".join(["GAUSSTAB 1", *itertools.chain(*blocks)]) + "\n")
    assert get_or_build(path, n) == gauss_rule(n)
    blocks.insert(at, dumps_tables([gauss_rule(n)]).splitlines()[1:])
    assert path.read_text() == "\n".join(["GAUSSTAB 1", *itertools.chain(*blocks)]) + "\n"


@pytest.mark.parametrize(
    "text, fault",
    [
        (dumps_tables([gauss_rule(2)]) + "N 1\n\xc3\xa9 2\n", "not a text table"),
        ("GAUSSTAB 1\nN 1\n0 3\n" + NOT_GAUSS_2[len("GAUSSTAB 1\n") :], "rule n=2 is not a Gauss rule"),
    ],
    ids=["not-ascii", "two-faults"],
)
def test_a_corrupt_cache_warns_once(tmp_path, capsys, text, fault):
    # the miss reads the file again under the lock and finds it corrupt again:
    # one warning, naming the fault the first read found. With two faults that
    # is block 2's, though the whole-file check meets block 1's first
    path = tmp_path / "cache.gausstab"
    path.write_bytes(text.encode("latin-1"))
    assert get_or_build(path, 2) == gauss_rule(2)
    (line,) = capsys.readouterr().err.splitlines(keepends=True)
    assert line.startswith(f"warning: discarding corrupt rule cache ({path}: {fault}")
    assert line.endswith("); rebuilding\n")
    assert path.read_text() == dumps_tables([gauss_rule(2)])


def test_a_miss_in_a_directory_it_cannot_read_writes_without_the_lock(tmp_path, monkeypatch, capsys):
    # a directory that can be written and searched but not read cannot be opened
    # to take the lock; the miss still inserts its rule, without the lock
    path = tmp_path / "cache.gausstab"
    save_tables([gauss_rule(2)], path)
    real_open = os.open

    def unreadable_directory(file, flags, *args):
        if os.fspath(file) == str(tmp_path):
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, flags, *args)

    monkeypatch.setattr(os, "open", unreadable_directory)
    assert get_or_build(path, 5) == gauss_rule(5)
    assert capsys.readouterr().err == ""
    assert path.read_text() == dumps_tables([gauss_rule(2), gauss_rule(5)])
    assert os.listdir(tmp_path) == ["cache.gausstab"]
