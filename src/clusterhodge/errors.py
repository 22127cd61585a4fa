"""Exception hierarchy.

Everything raised on bad user input derives from InputError so the CLI can
map it to exit code 2 uniformly.  ConsistencyError signals that a computed
result violated a structural invariant (a bug, not bad input).  Diagnostics
echo input through ``echo_int`` (numbers) and ``io._echo`` (lines), both cut
to ECHO_CHARS.
"""

ECHO_CHARS = 60  # characters of an input line, or digits of a number, a diagnostic echoes


def echo_int(k: int) -> str:
    """k for a diagnostic: in full up to ECHO_CHARS digits, else its first
    ECHO_CHARS digits and its length.  A long k is never passed to str(), so
    the interpreter's limit on int-to-str digits does not apply."""
    size = abs(k)
    if size < 10**ECHO_CHARS:
        return str(k)
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1  # 0.30102 < log10(2)
    while size >= 10**digits:
        digits += 1
    head = str(size // 10 ** (digits - ECHO_CHARS))
    return f"{'-' if k < 0 else ''}{head}... ({digits} digits)"


class ClusterHodgeError(Exception):
    pass


class InputError(ClusterHodgeError):
    pass


class ShapeMismatch(InputError):
    pass


class NotSkewSymmetric(InputError):
    def __init__(self, i: int, j: int, message: str | None = None):
        self.position = (i, j)
        super().__init__(message or f"top block not skew-symmetric at ({i}, {j})")


class IndexOutOfRange(InputError):
    pass


class NotFullRank(InputError):
    pass


class NotReallyFullRank(InputError):
    pass


class NotAcyclic(InputError):
    pass


class NotAnticlique(InputError):
    pass


class NotAForest(InputError):
    pass


class NotAnEdge(InputError):
    pass


class VertexInX(InputError):
    pass


class CycleTooSmall(InputError):
    pass


class ColumnsDependent(InputError):
    pass


class NotPrincipal(InputError):
    pass


class NotConnected(InputError):
    pass


class TooLarge(InputError):
    pass


class ConsistencyError(ClusterHodgeError):
    """A structural invariant failed on a computed value."""
