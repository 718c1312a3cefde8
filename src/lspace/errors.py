"""Exception hierarchy shared by all modules.

Every semantic failure has a named exception class; the CLI reports the
class name verbatim in the "error" field of its JSON output.
"""

from functools import wraps


class LSpaceError(Exception):
    """Base class for all semantic errors raised by this package."""

    @property
    def name(self):
        return type(self).__name__


class MalformedInput(LSpaceError):
    """Outside input that cannot be read: a missing key, a value of the
    wrong type or shape, a cyclic order below 2, the slope 0/0, a fiber
    index out of range or an oracle window scale below 1.  An integer field
    takes a JSON integer only: 2.0, 1.5 and true are refused."""


def reads_input(fn):
    """Report the ValueError, KeyError, TypeError or AttributeError that
    fn raises while reading outside input as MalformedInput."""
    @wraps(fn)
    def reader(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInput("%s: %s" % (type(exc).__name__, exc)) from exc
    return reader


def read_int(value, field):
    """An integer field of outside input: an int, never a bool or a float."""
    if type(value) is not int:
        raise MalformedInput("%s: %r is not an integer" % (field, value))
    return value


# --- manifold record validation ---

class NonTorsionLongitude(LSpaceError):
    """iota(l) has a nonzero free part, so l is not a homological longitude."""


class ZeroInComplement(LSpaceError):
    """The zero class appears in the torsion-complement support."""


class NegativePhiInComplement(LSpaceError):
    """Some torsion-complement class has negative free part."""


class BadMeridianFreePart(LSpaceError):
    """iota(m) does not have free part equal to the order of iota(l)."""


class Lemma73Violation(LSpaceError):
    """The reduced Alexander polynomial fails the cyclic congruence forced
    on every rational homology S^1 x D^2; the record is inconsistent."""


class MissingWitness(LSpaceError):
    """The operation needs an interior L-space slope but none was supplied."""


# --- slope / witness problems ---

class NotFloerSimpleSlope(LSpaceError):
    """Torsion coefficient differences at this slope are not all 0 or 1,
    so the core of the filling is not a Floer simple knot."""


class WitnessOnLongitude(LSpaceError):
    """The supplied witness slope is the homological longitude."""


class WitnessOnIntervalBoundary(LSpaceError):
    """The witness sits on the boundary of the L-space interval
    (some lift of the difference set has residue 0); an interior
    slope is required."""


class LongitudeFilling(LSpaceError):
    """The requested filling slope is the homological longitude."""


# --- linear algebra / gluing ---

class DeterminantError(LSpaceError):
    """A gluing matrix does not have determinant -1."""


class HypothesisNotMet(LSpaceError):
    """The interval-overlap hypothesis of the gluing criterion fails;
    no verdict is possible along this route."""


class NotRationalHomologySphere(LSpaceError):
    """The glued manifold has positive first Betti number (q* = 0), hence
    is definitely not an L-space."""


class SearchExhausted(LSpaceError):
    """The bounded judicious-slope search ended without an answer: no
    judicious slope with p1 <= 400 in either encoding."""


class InvariantViolation(LSpaceError):
    """An identity that a construction relies on failed: a Bezout relation
    of a slope and its longitude, the rank or orientation of the spliced
    group, a support piece with a repeated class, an exact division in a
    slope criterion, the size of <iota(l)>, the two Seifert criterion forms
    disagreeing, or the arrows of a train-track graph.  These are checked
    as named errors, not assertions, so python -O keeps them."""


def require(holds, message, *args):
    """Check an invariant; unlike assert, python -O keeps it.  The message
    is formatted with args only when the check fails."""
    if not holds:
        raise InvariantViolation(message % args if args else message)


# --- Seifert data ---

class IntegerFiberSlope(LSpaceError):
    """An exceptional fiber was given an integer filling slope."""


class TooFewFibers(LSpaceError):
    """A fiber's threshold pair needs at least two exceptional fibers."""


# --- bordered invariants ---

class InvalidFraming(LSpaceError):
    """The framing (mu, lambda) gives no train-track graph: lambda must
    pair with mu to +-1, with phi(iota(mu)) > 0 > phi(iota(lambda)) and a
    twist that clears the support spread."""


class NotGeneralizedSolidTorus(LSpaceError):
    """The record fails deg(reduced Alexander polynomial) < g, so the
    twist-invariance comparison is not expected to succeed."""
