"""Exception hierarchy shared across the package.

Every structured rejection raised by the library derives from
:class:`ToricCoxError` so callers (in particular the CLI) can map failures
to exit codes uniformly.
"""


class ToricCoxError(Exception):
    """Base class for all structured errors raised by this package."""


class MalformedFan(ToricCoxError):
    """Fan data violates a structural invariant (cites the offending item)."""


class RaysDontSpan(ToricCoxError):
    """Fan rays do not span the ambient lattice, so the divisor map is not injective."""


class NotComplete(ToricCoxError):
    """Operation requires a complete fan."""


class NotSmooth(ToricCoxError):
    """Operation requires smooth data (unimodular cones / primitive kernel rows)."""


class UnboundedPolytope(ToricCoxError):
    """Lattice point enumeration requested on a polyhedron with a recession direction."""


class OracleMismatch(ToricCoxError):
    """The two independent graded-dimension oracles disagree; implementation bug.

    Carries the class, both counts and the divisor the class was lifted to.
    """

    def __init__(
        self, class_vector: tuple[int, ...], by_fiber: int, by_polytope: int, lift: tuple[int, ...]
    ) -> None:
        super().__init__(
            f"fiber count {by_fiber} != polytope count {by_polytope} at {class_vector}"
            f" (lifted divisor {lift})"
        )
        self.class_vector = class_vector
        self.by_fiber = by_fiber
        self.by_polytope = by_polytope
        self.lift = lift


class InhomogeneousInput(ToricCoxError):
    """Operation is only defined on homogeneous elements."""


class DegenerateRay(ToricCoxError):
    """A Gale-dual ray candidate is the zero vector."""


class NotSurjective(ToricCoxError):
    """Grading matrix does not surject onto the class lattice."""


class NotAmpleLift(ToricCoxError):
    """Chosen class does not lift to a full-dimensional polytope with all rays active."""
