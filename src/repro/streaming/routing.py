"""Region routing for the online alert gateway.

:class:`PlaneRouter` partitions the stream by **region**: the whole
mitigation chain is region-local (R2 sessions key on ``(strategy,
region)``, R3 evidence requires equal regions, R4 flood rates are per
``(hour, region)``), so a region is the natural unit of an execution
plane that can run R1-R4 end to end without coordination.  Regions are
assigned to planes sticky round-robin in first-seen order: deterministic
for a given stream, perfectly balanced for small region populations
(where a hash ring would leave planes empty), and never revisited — a
region's plane owns all of its state for the gateway's whole life, and
the plane count is fixed at construction.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.validation import require_positive

__all__ = ["PlaneRouter"]


class PlaneRouter:
    """Region → execution plane, sticky round-robin.

    The first distinct region observed goes to plane 0, the next to
    plane 1, and so on, wrapping around — an assignment is made exactly
    once and never moves.  For the same stream the mapping is therefore
    deterministic across runs, backends, and ingestion paths (they all
    observe regions in the same arrival order), which is what keeps
    plane-partitioned accounting reproducible.
    """

    def __init__(self, n_planes: int) -> None:
        require_positive(n_planes, "n_planes")
        self._n_planes = int(n_planes)
        self._plane_of: dict[str, int] = {}

    @property
    def n_planes(self) -> int:
        """Number of execution planes."""
        return self._n_planes

    @property
    def assignments(self) -> dict[str, int]:
        """Region → plane map so far (copy)."""
        return dict(self._plane_of)

    @property
    def plane_cache(self) -> dict[str, int]:
        """The *live* region → plane map, for hot ingest loops.

        Contract: read-only; on a miss callers must fall back to
        :meth:`plane_of`, which makes the assignment.  The dict object is
        stable for the router's lifetime, so it can be bound to a local
        once per batch.
        """
        return self._plane_of

    def regions_of(self, plane: int) -> tuple[str, ...]:
        """Regions assigned to ``plane``, in assignment order."""
        return tuple(
            region for region, owner in self._plane_of.items() if owner == plane
        )

    def plane_of(self, region: str) -> int:
        """The plane owning ``region`` (assigning it on first sight)."""
        plane = self._plane_of.get(region)
        if plane is None:
            plane = len(self._plane_of) % self._n_planes
            self._plane_of[region] = plane
        return plane

    def restore(self, assignments: "list[tuple[str, int]] | dict[str, int]") -> None:
        """Adopt a previously-captured region → plane map (checkpoint restore).

        ``assignments`` must be in **first-seen order**: round-robin
        continuation for regions first seen after the restore derives
        from the number of regions already assigned, and the checkpoint
        replays regions in this order, so order is part of the state.
        Only valid on a fresh router (no assignments made yet), and every
        plane id must fit the plane count.
        """
        if self._plane_of:
            raise ValidationError(
                "cannot restore assignments onto a router that already "
                "routed regions; restore into a fresh gateway instead"
            )
        items = assignments.items() if isinstance(assignments, dict) else assignments
        restored: dict[str, int] = {}
        for region, plane in items:
            plane = int(plane)
            if not 0 <= plane < self._n_planes:
                raise ValidationError(
                    f"restored assignment {region!r} -> plane {plane} does "
                    f"not fit {self._n_planes} plane(s)"
                )
            restored[str(region)] = plane
        self._plane_of = restored
