"""Persist and reload quadrature rules as plain text tables.

Format (version 1): a header line ``GAUSSTAB 1``, then for each rule a
line ``N <n>`` followed by n lines ``<node> <weight>`` with 17
significant digits, nodes ascending.  17 digits round-trip doubles
bit-exactly, writes go through a temp file plus rename so a crash never
leaves a torn table, and every rule read is re-validated: a cache is
derived data and must never be trusted blindly.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import sys
from collections.abc import Iterable

from . import quadrature
from .errors import TableError
from .legendre import legendre_value_and_derivative
from .quadrature import QuadratureRule

FORMAT_NAME = "GAUSSTAB"
FORMAT_VERSION = 1

_SUM_TOL = 1e-12
# Gauss-property tolerance, in units of n * eps: correct rules reach at
# most ~0.07 (Newton step) and ~6.6 (relative weight error) for n <= 64.
_GAUSS_TOL = 64


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def rule_violation(rule: QuadratureRule) -> str | None:
    """Description of the first violated rule invariant, or None."""
    n, nodes, weights = rule.n, rule.nodes, rule.weights
    if n < 1 or len(nodes) != n or len(weights) != n:
        return f"expected {n} node/weight pairs, found {len(nodes)}"
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


def dumps_tables(rules: Iterable[QuadratureRule]) -> str:
    """Serialize rules (deduplicated by n, ascending) to the text format."""
    by_n = {rule.n: rule for rule in rules}
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    for n in sorted(by_n):
        rule = by_n[n]
        lines.append(f"N {n}")
        lines.extend(f"{_fmt(x)} {_fmt(w)}" for x, w in zip(rule.nodes, rule.weights))
    return "\n".join(lines) + "\n"


def save_tables(rules: Iterable[QuadratureRule], path: str) -> None:
    """Write rules to ``path`` atomically (temp file + rename).

    A file that is replaced keeps its permission bits; a new one is
    created with mode 0600.  Raises OSError if ``path`` exists and is not
    a regular file: a symlink, device or FIFO is never replaced.
    """
    import tempfile  # with random, a few ms at start; a warm cache hit never writes

    path = os.fspath(path)
    text = dumps_tables(rules)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    else:
        # the rename would replace a link, device or FIFO with a regular file
        if not stat.S_ISREG(mode):
            raise OSError(f"{path}: not a regular file")
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gausstab.")
    try:
        with os.fdopen(fd, "w") as fh:
            if mode is not None:
                # mkstemp made the temp file 0600
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_tables(path: str) -> dict[int, QuadratureRule]:
    """Load and validate every rule in the file, keyed by point count.

    Raises TableError for a bad header, version mismatch, malformed or
    truncated lines (with the line number), or any invariant violation;
    FileNotFoundError passes through for a missing file, and OSError is
    raised for a path that names no regular file (a FIFO is never waited on).
    """
    path = os.fspath(path)
    return _parse_tables(_read_table(path), path)


def _read_table(path: str) -> str:
    # O_NONBLOCK: opening a FIFO does not wait for a writer; the mode is
    # checked on the open descriptor, so the file read is the file checked
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    mode = os.fstat(fd).st_mode
    if not stat.S_ISREG(mode):
        os.close(fd)
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        raise OSError(f"{path}: not a regular file")
    try:
        with open(fd, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise TableError(f"{path}: not a text table ({exc})") from None


def _parse_tables(text: str, path: str) -> dict[int, QuadratureRule]:
    lines = text.splitlines()
    if not lines:
        raise TableError(f"{path}:1: empty file, expected '{FORMAT_NAME} <version>'")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise TableError(f"{path}:1: not a rule table, expected '{FORMAT_NAME} <version>'")
    if header[1] != str(FORMAT_VERSION):
        raise TableError(f"{path}:1: unsupported format version {header[1]!r}")
    rules: dict[int, QuadratureRule] = {}
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
        if n in rules:
            raise TableError(f"{path}:{ln + 1}: duplicate rule for n={n}")
        nodes, weights = [], []
        for k in range(n):
            ln += 1
            if ln >= len(lines):
                raise TableError(
                    f"{path}:{ln + 1}: truncated rule block for n={n} "
                    f"(expected {n} node/weight lines, found {k})"
                )
            pair = lines[ln].split()
            try:
                if len(pair) != 2:
                    raise ValueError
                nodes.append(float(pair[0]))
                weights.append(float(pair[1]))
            except ValueError:
                raise TableError(
                    f"{path}:{ln + 1}: malformed line, expected '<node> <weight>'"
                ) from None
        rule = QuadratureRule(n=n, nodes=tuple(nodes), weights=tuple(weights))
        violation = rule_violation(rule)
        if violation is not None:
            raise TableError(f"{path}: rule n={n} violates an invariant: {violation}")
        rules[n] = rule
        ln += 1
    return rules


def _cached_rule(text: str, n: int) -> QuadratureRule | None:
    # the n-point rule parsed from the header and its own block alone, when
    # that block is unique and holds the Gauss rule; else None, and the
    # whole text is parsed
    marker = f"\nN {n}\n"
    start = text.find(marker)
    if start < 0 or text.find(marker, start + 1) >= 0:
        return None
    block = text[start + 1 :].split("\n", n + 1)[: n + 1]  # "N n" and the n lines after it
    try:
        rule = _parse_tables("\n".join([text[: text.index("\n")], *block]), "")[n]
    except TableError:
        return None
    return rule if gauss_violation(rule) is None else None


def get_or_build(cache_path: str, n: int) -> QuadratureRule:
    """Return the cached n-point rule, building and appending on a miss.

    A hit reads the file once and parses and checks only the n-point
    block, against the invariants and the Gauss property
    (``gauss_violation``), so a warm lookup stays cheap.  Otherwise the
    same text is parsed whole: a corrupt cache, including one whose
    n-point rule is not the Gauss rule, is rebuilt from scratch after a
    warning on stderr; the cache is derived data, so this is recovery,
    not failure.  A corrupt block for another n is found on a miss.
    """
    cache_path = os.fspath(cache_path)
    if os.path.islink(cache_path):
        # read and replace what the link names; the link stays a link
        cache_path = os.path.realpath(cache_path)
    rules: dict[int, QuadratureRule] = {}
    try:
        text = _read_table(cache_path)
        rule = _cached_rule(text, n)
        if rule is not None:
            return rule
        rules = _parse_tables(text, cache_path)
        violation = gauss_violation(rules[n]) if n in rules else None
        if violation is not None:
            raise TableError(f"{cache_path}: rule n={n} is not a Gauss rule: {violation}")
    except FileNotFoundError:
        pass
    except TableError as exc:
        print(
            f"warning: discarding corrupt rule cache ({exc}); rebuilding",
            file=sys.stderr,
        )
        rules = {}
    if n in rules:
        return rules[n]
    rule = quadrature.gauss_rule(n)
    rules[n] = rule
    save_tables(rules.values(), cache_path)
    return rule


def default_cache_path() -> str:
    """CALCVERIFY_CACHE if set, else a per-user cache directory."""
    env = os.environ.get("CALCVERIFY_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "calcverify", "rules.gausstab")
