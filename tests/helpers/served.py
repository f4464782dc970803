"""The one way tests stand up a served system.

Every suite that needs a live HTTP front-end — ``tests/serve``,
``tests/faults``, ``tests/incidents`` — used to hand-roll the same
``PredictionServer(...)`` / ``serve_in_background()`` / ``close()``
dance (each copy with its own port-collision flake). They now share
:class:`~repro.incidents.harness.ServedSystem`, re-exported here so
test modules depend on one helper path rather than the incidents
package layout.

Typical fixture::

    from tests.helpers.served import ServedSystem

    @pytest.fixture(scope="module")
    def server(service):
        # Fronts a caller-owned service; stop() leaves the service open.
        with ServedSystem(service=service) as system:
            yield system

or, building the whole stack from a scenario spec::

    with ServedSystem(tiny_spec, cache_dir=serve_cache, warm=("BDT",)) as s:
        status, headers, body = s.post("/v1/predict", {"jobs": records})

:func:`served` is the same thing as a plain context-manager function,
for call sites that read better without the class name.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.incidents.harness import ServedSystem

__all__ = ["ServedSystem", "served"]


@contextmanager
def served(*args, **kwargs) -> Iterator[ServedSystem]:
    """Start a :class:`ServedSystem` for the block; always stop it."""
    system = ServedSystem(*args, **kwargs)
    try:
        yield system.start()
    finally:
        system.stop()
