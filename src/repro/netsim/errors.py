"""Exception hierarchy for the network simulator."""


class NetSimError(Exception):
    """Base class for all simulator errors."""


class AddressError(NetSimError):
    """An IPv4 address string or integer was malformed."""


class PacketError(NetSimError):
    """A packet could not be encoded or decoded."""


class FragmentationError(NetSimError):
    """Fragmentation or reassembly failed (bad offsets, MTU too small...)."""


class PortInUseError(NetSimError):
    """A UDP port is already bound on the host."""


class NoRouteError(NetSimError):
    """The network has no route/link able to deliver a packet."""


class SimulationError(NetSimError):
    """The event loop was used incorrectly (e.g. scheduling in the past)."""


class InvariantViolation(SimulationError):
    """A strict-mode simulator invariant failed (see ``Simulator(strict=True)``).

    Raised when heap monotonicity, event/cancellation accounting, or burst
    atomicity is broken — conservation laws the chaos suite asserts under
    arbitrary fault sequences.
    """


class FaultConfigError(NetSimError):
    """A fault-injection component or plan was misconfigured."""
