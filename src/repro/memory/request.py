"""Request origins: who caused an access or an event on the hierarchy.

A demand access and a prefetch travel the level chain of
:mod:`repro.memory.hierarchy` as plain arguments; ``WRITEBACK`` and
``METADATA`` appear only as event origins on the
:class:`~repro.memory.events.EventBus`.
"""

DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"
METADATA = "metadata"

ORIGINS = (DEMAND, PREFETCH, WRITEBACK, METADATA)
