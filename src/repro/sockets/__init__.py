"""Socket substrate: BSD socket table, kernel lookup path, and sk_lookup."""

from .compiled import CompiledProgram
from .errors import (
    AddressInUseError,
    InvalidSocketStateError,
    ProgramError,
    ProgramNotAttachedError,
    SocketError,
    VerifierError,
)
from .lookup import DispatchResult, LookupPath, LookupStage, flow_hash
from .nat import CarrierGradeNAT, NatBinding, NatExhaustedError
from .sklookup import (
    MAX_RULES_PER_PROGRAM,
    MatchRule,
    SkLookupProgram,
    SockArray,
    Verdict,
    verify_program,
)
from .socktable import (
    RECEIVE_QUEUE_DEPTH,
    SOCKET_MEM_BYTES,
    Socket,
    SocketState,
    SocketTable,
)

__all__ = [
    "AddressInUseError",
    "CompiledProgram",
    "InvalidSocketStateError",
    "ProgramError",
    "ProgramNotAttachedError",
    "SocketError",
    "VerifierError",
    "DispatchResult",
    "LookupPath",
    "LookupStage",
    "flow_hash",
    "CarrierGradeNAT",
    "NatBinding",
    "NatExhaustedError",
    "MAX_RULES_PER_PROGRAM",
    "MatchRule",
    "SkLookupProgram",
    "SockArray",
    "Verdict",
    "verify_program",
    "RECEIVE_QUEUE_DEPTH",
    "SOCKET_MEM_BYTES",
    "Socket",
    "SocketState",
    "SocketTable",
]
