"""Flowtune's control plane: message formats, endpoint and allocator agents."""

from .allocator_node import AllocatorNode
from .endpoint import HostControlAgent
from .intermediaries import (UpdatePlane, direct_update_plane,
                             intermediary_update_plane)
from .messages import (FLOWLET_END_BYTES, FLOWLET_START_BYTES,
                       RATE_UPDATE_BYTES, ControlMessage, MessageType,
                       batched_wire_bytes, control_frame_bytes, wire_bytes)

__all__ = ["ControlMessage", "MessageType", "FLOWLET_START_BYTES",
           "FLOWLET_END_BYTES", "RATE_UPDATE_BYTES", "wire_bytes",
           "batched_wire_bytes", "AllocatorNode", "HostControlAgent",
           "control_frame_bytes", "UpdatePlane", "direct_update_plane",
           "intermediary_update_plane"]
