"""
Exception hierarchy for laminate.

Every exception carries a machine-readable ``kind`` (used by the CLI as
``error.kind``) and a human-readable message.  Input problems (bad files,
bad vectors, bad supports) derive from InputError and map to exit code 1;
refusals (well-formed requests the library declines to compute, such as a
genus enumeration over a cone that carries non-negative Euler
characteristic) derive from Refusal and map to exit code 2.
"""


class LaminateError(Exception):
    """Base class; ``kind`` defaults to the class name."""

    @property
    def kind(self):
        return type(self).__name__


class InputError(LaminateError):
    pass


class Refusal(LaminateError):
    pass


# --- triangulation parsing / validity ---

class UnglueedFace(InputError):
    pass


class DoubleGluing(InputError):
    pass


class BadPermutation(InputError):
    pass


class NonOrientable(InputError):
    pass


class InvalidEdge(InputError):
    """An edge of the triangulation is identified with itself in reverse."""


class NotClosedManifold(InputError):
    """Vertex links are not all 2-spheres (V - E + F - T != 0)."""


# --- normal coordinates / surfaces ---

class Inadmissible(InputError):
    pass


class IncompatibleQuads(InputError):
    """A Haken sum would place two quad/oct directions in one tetrahedron."""


class InternalCheckFailed(LaminateError):
    """A structural sanity check failed; indicates a bug, not bad input."""


# --- polyhedral engine ---

class CoefficientBudgetExceeded(Refusal):
    """An intermediate integer outgrew the configured --max-coeff-bits."""


class WorkBudgetExceeded(Refusal):
    """A computation would visit more points than the fixed work budget."""


def check_work(count, cap, what, *args):
    """Refuse work of size count over its cap, before it starts: what,
    formatted with args and then count, is the message's first part."""
    if count > cap:
        raise WorkBudgetExceeded((what + " (budget %d)")
                                 % (*args, count, cap))


# --- branched surfaces / finiteness ---

class InvalidSupport(InputError):
    pass


class NotCarried(InputError):
    pass


class UnboundedRefusal(Refusal):
    """The cone carries chi >= 0, so a fixed-genus list may be infinite."""


class GenusTooSmall(InputError):
    pass


# --- train tracks ---

class NotSplittable(InputError):
    pass
