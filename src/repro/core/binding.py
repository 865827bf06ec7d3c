"""The service-independent half of wiring extensions into a replica.

EZK and EDS differ only in how an extension's write set becomes durable
(one multi-transaction through Zab, §5.1.2, or direct execution at every
replica with an undo log, §5.2.2). Describing a native op, matching it,
running the extension contained and rolling back a failed run is the
same model, and lives here. A service adapter supplies ``describe``,
the ``begin``/``commit`` callables around its own proxy (which answers
``rollback()``), and :meth:`~ExtensionBinding.registrations`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .api import AbstractState, EventNotice, OperationRequest
from .errors import ExtensionError
from .manager import ExtensionManager, RegisteredExtension
from .sandbox import SandboxLimits
from .verifier import VerifierConfig

__all__ = ["ExtensionBinding"]

#: ``begin(record)`` -> a fresh proxy for one run of ``record``.
Begin = Callable[[RegisteredExtension], AbstractState]


class ExtensionBinding:
    """One replica's extension manager plus the loop every service shares."""

    #: ``(native op, client id) -> OperationRequest | None``.
    describe: Callable[[Any, str], Optional[OperationRequest]]

    def __init__(self, verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None,
                 helpers: Optional[dict] = None):
        self.manager = ExtensionManager(verifier_config, limits, helpers)

    def consumes(self, client_id: str, op: Any) -> bool:
        """True when an operation extension would consume ``op``."""
        request = self.describe(op, client_id)
        return (request is not None
                and self.manager.match_operation(request) is not None)

    def run_operation(self, client_id: str, op: Any, begin: Begin
                      ) -> Optional[Tuple[AbstractState, Any]]:
        """``(proxy, result)`` of the extension consuming ``op``, or None.

        A failed run is rolled back before its error propagates.
        """
        request = self.describe(op, client_id)
        if request is None:
            return None
        record = self.manager.match_operation(request)
        if record is None:
            return None
        return self._execute(begin, self.manager.execute_operation, record,
                             request)

    def run_events(self, notice: EventNotice, begin: Begin,
                   commit: Callable[[AbstractState], None]) -> None:
        """Run the event extensions matching ``notice`` in registration
        order, each in its own proxy; a failed run is rolled back and
        skipped, a successful one is committed."""
        for record in self.manager.match_events(notice):
            try:
                proxy, _ = self._execute(begin, self.manager.execute_event,
                                         record, notice)
            except ExtensionError:
                continue
            commit(proxy)

    def _execute(self, begin: Begin, execute: Callable[..., Any],
                 record: RegisteredExtension, argument: Any
                 ) -> Tuple[AbstractState, Any]:
        """The one place extension code runs."""
        proxy = begin(record)
        try:
            return proxy, execute(record, argument, proxy)
        except ExtensionError:
            proxy.rollback()
            raise

    def registrations(self) -> List[Tuple[str, str, str, List[str]]]:
        """(name, source, owner, acked clients) persisted in local state."""
        raise NotImplementedError

    def rebuild(self) -> None:
        """Reload the registry from the persisted registrations (§3.8)."""
        self.manager.reload(self.registrations())
