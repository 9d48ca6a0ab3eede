"""Persist and reload quadrature rules as plain text tables.

Format (version 1, written by ``quadrature.dumps_tables``): a header
line ``GAUSSTAB 1``, then for each rule a line ``N <n>`` followed by n
lines ``<node> <weight>`` with 17 significant digits, nodes ascending.
17 digits round-trip doubles bit-exactly, writes (``_tablewrite``) go
through a temp file plus rename so a crash never leaves a torn table, and
every rule read is re-validated: a cache is derived data, never trusted.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import sys

from . import quadrature
from .errors import TableError, _count
from .quadrature import FORMAT_NAME, FORMAT_VERSION, QuadratureRule, dumps_tables, legendre_value_and_derivative

_SUM_TOL = 1e-12
# Gauss-property tolerance, in units of n * eps: correct rules reach at
# most ~0.07 (Newton step) and ~6.6 (relative weight error) for n <= 64.
_GAUSS_TOL = 64


def rule_violation(rule: QuadratureRule) -> str | None:
    """Description of the first violated rule invariant, or None."""
    n, nodes, weights = rule.n, rule.nodes, rule.weights
    if n < 1 or len(nodes) != n or len(weights) != n:
        return f"expected {n} node/weight pairs, found {len(nodes)} nodes and {len(weights)} weights"
    for x in nodes:
        if not -1.0 < x < 1.0:
            return f"node {x!r} outside the open interval (-1, 1)"
    for a, b in zip(nodes, nodes[1:]):
        if not a < b:
            return "nodes are not strictly ascending"
    for w in weights:
        if not w > 0.0:
            return f"non-positive weight {w!r}"
        # positive weights summing to 2 each lie in (0, 2]; checked before
        # the sums below, which a huge weight would overflow
        if w > 2.0:
            return f"weight {w!r} exceeds 2, the sum of all the weights"
    if abs(math.fsum(weights) - 2.0) > _SUM_TOL:
        return f"weights sum to {math.fsum(weights)!r}, not 2"
    if abs(math.fsum(w * x for w, x in zip(weights, nodes))) > _SUM_TOL:
        return "first moment of the weights is not 0"
    for i in range(n // 2):
        if abs(weights[i] - weights[n - 1 - i]) > _SUM_TOL:
            return f"weights are not symmetric at index {i}"
    return None


def gauss_violation(rule: QuadratureRule) -> str | None:
    """How a rule that passes ``rule_violation`` fails to be Gauss-Legendre, or None.

    Each node must be a root of P_n to within a Newton step |P_n/P_n'| of
    64 n eps, and each weight must match the closed form
    2 / ((1 - x^2) P_n'(x)^2), evaluated in floats, to a relative 64 n eps.
    The invariants alone pass, e.g., the 2-point rule on +-0.5 with unit
    weights, which integrates x^2 over [-1, 1] to 0.5.
    """
    n = rule.n
    tol = _GAUSS_TOL * n * sys.float_info.epsilon
    for x, w in zip(rule.nodes, rule.weights):
        p, d = legendre_value_and_derivative(n, x)
        if d == 0.0 or not abs(p) <= tol * abs(d):
            return f"node {x!r} is not a root of P_{n}"
        # w (1 - x^2) P_n'(x)^2 = 2, relative to the closed form, without dividing
        if not abs(w * (1.0 - x * x) * d * d - 2.0) <= 2.0 * tol:
            return f"weight {w!r} at node {x!r} is not 2 / ((1 - x^2) P_{n}'(x)^2)"
    return None


def save_tables(rules: Iterable[QuadratureRule], path: str) -> None:
    """Write rules to ``path`` atomically (temp file + rename), as ``dumps_tables`` formats them.

    A file that is replaced keeps its permission bits; a new one is
    created with mode 0600.  Raises OSError if ``path`` exists and is not
    a regular file: a symlink, device or FIFO is never replaced.  The
    file is replaced whole, whatever it held; ``get_or_build`` is the
    writer that keeps the rules other writers add.
    """
    from ._tablewrite import _write_table  # here: a cache hit compiles no writer

    _write_table(os.fspath(path), dumps_tables(rules))


def load_tables(path: str) -> dict[int, QuadratureRule]:
    """Load and validate every rule in the file, keyed by point count.

    Raises TableError for a bad header, version mismatch, malformed or
    truncated lines (with the line number), any invariant violation, or a
    rule that is not the Gauss rule (``gauss_violation``);
    FileNotFoundError passes through for a missing file, and OSError is
    raised for a path that names no regular file (a FIFO is never waited on).
    """
    path = os.fspath(path)
    return {n: _gauss_rule(rule, path) for n, rule in _parse_tables(_read_table(path), path).items()}


def _read_table(path: str) -> list[str]:
    # O_NONBLOCK: opening a FIFO does not wait for a writer; the mode is
    # checked on the open descriptor, so the file read is the file checked
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    mode = os.fstat(fd).st_mode
    if not stat.S_ISREG(mode):
        os.close(fd)
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        raise OSError(f"{path}: not a regular file")
    # bytes: a text-mode read costs more, and loads an encoding module; the
    # lines split as text mode would, so "\r\n" and "\r" end lines too
    with open(fd, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TableError(f"{path}: not a text table ({exc})") from None
    return text.splitlines()


def _parse_tables(lines: list[str], path: str, only: int | None = None) -> dict[int, QuadratureRule]:
    # with only=n, every 'N k' header is still read and checked, but the rows of
    # any other block are skipped by its count, and block n alone is parsed
    if not lines:
        raise TableError(f"{path}:1: empty file, expected '{FORMAT_NAME} <version>'")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise TableError(f"{path}:1: not a rule table, expected '{FORMAT_NAME} <version>'")
    if header[1] != str(FORMAT_VERSION):
        raise TableError(f"{path}:1: unsupported format version {header[1]!r}")
    rules: dict[int, QuadratureRule] = {}
    seen: set[int] = set()
    ln = 1
    while ln < len(lines):
        parts = lines[ln].split()
        if len(parts) != 2 or parts[0] != "N":
            raise TableError(f"{path}:{ln + 1}: malformed line, expected 'N <n>'")
        try:
            n = int(parts[1])
        except ValueError:
            raise TableError(f"{path}:{ln + 1}: malformed point count {parts[1]!r}") from None
        if n < 1:
            raise TableError(f"{path}:{ln + 1}: point count must be positive, got {n}")
        if n in seen:
            raise TableError(f"{path}:{ln + 1}: duplicate rule for n={n}")
        seen.add(n)
        rows = lines[ln + 1 : ln + 1 + n]
        if len(rows) < n:
            raise TableError(
                f"{path}:{len(lines) + 1}: truncated rule block for n={n} "
                f"(expected {n} node/weight lines, found {len(rows)})"
            )
        if only is None or n == only:
            nodes, weights = [], []
            for row_ln, row in enumerate(rows, ln + 2):
                pair = row.split()
                try:
                    if len(pair) != 2:
                        raise ValueError
                    nodes.append(float(pair[0]))
                    weights.append(float(pair[1]))
                except ValueError:
                    raise TableError(f"{path}:{row_ln}: malformed line, expected '<node> <weight>'") from None
            rule = QuadratureRule(n=n, nodes=tuple(nodes), weights=tuple(weights))
            violation = rule_violation(rule)
            if violation is not None:
                raise TableError(f"{path}: rule n={n} violates an invariant: {violation}")
            rules[n] = rule
        ln += n + 1
    return rules


def _gauss_rule(rule: QuadratureRule, path: str) -> QuadratureRule:
    # the one Gauss check of a rule read from a table, on every path that returns one
    if (violation := gauss_violation(rule)) is not None:
        raise TableError(f"{path}: rule n={rule.n} is not a Gauss rule: {violation}")
    return rule


def get_or_build(cache_path: str, n: int) -> QuadratureRule:
    """Return the cached n-point rule, building and inserting it on a miss.

    A point count outside 1..64 (``quadrature.MAX_POINTS``) is rejected
    before the file is read, with ``gauss_rule``'s error, even if the file
    holds a block for it.
    A hit reads the file once and takes no lock: it reads and checks every
    ``N k`` header, skipping each other block by its count, and parses and
    checks only the n-point block, against the invariants and the Gauss
    property (``gauss_violation``), so a warm lookup stays cheap.  A miss
    builds the rule, takes an exclusive ``flock`` on the cache's directory,
    and reads the file again, as other writers may have changed it since;
    it parses and checks it whole, and writes nothing if it now holds the
    n-point rule.  Otherwise it inserts the rule's block before the first
    block with a larger n, keeps every other line as read (with LF line
    ends), and replaces the file atomically, so concurrent writers keep
    each other's rules.  A directory that can be searched but not read
    cannot be locked, and is written without the lock.  A corrupt cache,
    including one whose n-point rule is not the Gauss rule, is rebuilt
    from scratch, with one warning on stderr once the rule is built; the
    cache is derived data, so this is recovery, not failure.  A bad row in
    a block for another n is found on a miss.
    """
    # checked before the file is read: a cached 2 would answer 2.0, True
    # would find the 1-point rule, and a cached 65 would answer where
    # gauss_rule refuses it
    _count("point count", n, quadrature.MAX_POINTS)
    cache_path = os.fspath(cache_path)
    if os.path.islink(cache_path):
        # read and replace what the link names; the link stays a link
        cache_path = os.path.realpath(cache_path)
    corrupt = None
    try:
        rule = _parse_tables(_read_table(cache_path), cache_path, only=n).get(n)
        if rule is not None:
            return _gauss_rule(rule, cache_path)
    except FileNotFoundError:
        pass
    except TableError as exc:
        # the warning names this fault: the whole-file check under the lock may meet another first
        corrupt = exc
    rule = quadrature.gauss_rule(n)
    from ._tablewrite import insert_rule  # here: a cache hit compiles no writer

    return insert_rule(cache_path, n, rule, corrupt)
