"""Frozen writer for the read-only container versions 1–3.

The library writes only version 4.  Read-path tests for older versions
build their fixture bytes here, laid out exactly as the encoders of
those versions wrote them:

* versions 1/2 — ``{"header", "num_frames"}`` JSON, then packets back
  to back;
* version 3 — ``{"header"}`` JSON, then ``u32 size | packet`` frames
  and a zero-size sentinel, no CRC words.
"""

import json
import struct


def legacy_bytes(header: dict, packets, version: int) -> bytes:
    """Container bytes of ``header`` + ``packets`` at version 1, 2 or 3."""
    if version not in (1, 2, 3):
        raise ValueError(f"not a legacy container version: {version}")
    record = {"header": header}
    if version < 3:
        record["num_frames"] = len(packets)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray(b"NVCA" + struct.pack("<HI", version, len(blob)) + blob)
    for packet in packets:
        body = packet.serialize()
        if version == 3:
            out += struct.pack("<I", len(body))
        out += body
    if version == 3:
        out += struct.pack("<I", 0)
    return bytes(out)
