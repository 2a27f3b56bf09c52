"""Independent reference implementations used as test oracles.

Deliberately written with different techniques than the production code
(byte-at-a-time arithmetic, brute-force slicing) so agreement is meaningful.
"""

import jsonschema

from modnet.scenario import _OPEN_ARGS, _SEND_ARGS, SCHEMA, ScenarioError


def checksum_oracle(src_ip: bytes, dst_ip: bytes, udp_bytes: bytes) -> int:
    """One's-complement checksum computed bit by bit over the IPv6
    pseudo-header and UDP datagram."""
    material = bytearray()
    material += src_ip
    material += dst_ip
    n = len(udp_bytes)
    material += bytes([(n >> 24) & 0xFF, (n >> 16) & 0xFF,
                       (n >> 8) & 0xFF, n & 0xFF])
    material += b"\x00\x00\x00"
    material += b"\x11"  # next header = UDP
    material += udp_bytes
    if len(material) % 2:
        material.append(0)
    total = 0
    for i in range(0, len(material), 2):
        total += (material[i] << 8) | material[i + 1]
        # end-around carry, one bit at a time
        while total > 0xFFFF:
            total = (total & 0xFFFF) + 1
    result = total ^ 0xFFFF
    return 0xFFFF if result == 0 else result


def ones_complement_sum_oracle(data: bytes) -> int:
    """16-bit one's-complement sum of big-endian words, word by word with
    the end-around carry folded at every step; an odd tail is padded."""
    total = 0
    for i in range(0, len(data), 2):
        word = data[i] << 8 | (data[i + 1] if i + 1 < len(data) else 0)
        total += word
        if total > 0xFFFF:
            total = (total & 0xFFFF) + 1
    return total


def fragment_oracle(datagram: bytes, budget: int, tag: int) -> list[bytes]:
    """Brute-force slicer applying the 8-byte-unit rules directly."""
    assert budget >= 16
    assert len(datagram) <= 2047
    size = len(datagram)
    if size + 1 <= budget:
        return [b"\x41" + datagram]
    out = []
    # first fragment: largest multiple of 8 fitting after the 4-byte header
    room = budget - 4
    take = 0
    while take + 8 <= room:
        take += 8
    hdr = bytes([0b11000000 | (size >> 8), size & 0xFF,
                 (tag >> 8) & 0xFF, tag & 0xFF])
    out.append(hdr + datagram[:take])
    pos = take
    while pos < size:
        room = budget - 5
        take = 0
        while take + 8 <= room:
            take += 8
        chunk = datagram[pos:pos + take]
        hdr = bytes([0b11100000 | (size >> 8), size & 0xFF,
                     (tag >> 8) & 0xFF, tag & 0xFF, pos // 8])
        out.append(hdr + chunk)
        pos += len(chunk)
    return out


def reassemble_oracle(fragments: list[bytes]) -> bytes:
    """Concatenate fragment slices in offset order, ignoring arrival
    order; assumes a loss-free, single-datagram input."""
    if len(fragments) == 1 and fragments[0][0] == 0x41:
        return fragments[0][1:]
    pieces = {}
    size = None
    for frag in fragments:
        size = ((frag[0] & 0x07) << 8) | frag[1]
        if frag[0] >> 3 == 0b11000:
            pieces[0] = frag[4:]
        elif frag[0] >> 3 == 0b11100:
            pieces[frag[4] * 8] = frag[5:]
        else:
            raise AssertionError(f"bad dispatch byte {frag[0]:#x}")
    data = bytearray(size)
    for off, chunk in pieces.items():
        data[off:off + len(chunk)] = chunk
    return bytes(data)


def route_oracle(routes: list[tuple[bytes, int, int, object]], dst: bytes):
    """``(iface, next_hop)`` of the longest prefix in ``routes`` that covers
    ``dst``, the first added among equal lengths, compared bit by bit; None
    when no route covers it."""
    def bit(addr, i):
        return addr[i // 8] >> (7 - i % 8) & 1

    best = None
    for prefix, plen, iface, next_hop in routes:
        if (all(bit(prefix, i) == bit(dst, i) for i in range(plen))
                and (best is None or plen > best[0])):
            best = (plen, iface, next_hop)
    return None if best is None else best[1:]


class LruOracle:
    """Plain-list LRU cache; reference for both neighbor cache builds."""

    def __init__(self, capacity=8):
        self.capacity = capacity
        self.order = []  # most recent last: (addr, link)

    def insert(self, addr, link):
        for i, (a, _) in enumerate(self.order):
            if a == addr:
                del self.order[i]
                break
        else:
            if len(self.order) >= self.capacity:
                del self.order[0]
        self.order.append((addr, link))

    def lookup(self, addr):
        for i, (a, link) in enumerate(self.order):
            if a == addr:
                del self.order[i]
                self.order.append((a, link))
                return link
        return None


# JSON Schema counts 7.0 as an integer, and the stack needs an int
_IntValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int))


def _pointer(error) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def validate_document_oracle(doc) -> None:
    """Scenario validation by jsonschema alone: the document's errors
    sorted by path, the first one raised, then each workload op's
    arguments against the schema of its op."""
    validator = _IntValidator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        raise ScenarioError(err.message, _pointer(err))
    for i, item in enumerate(doc.get("workload", ())):
        sub = _OPEN_ARGS if item["op"] == "open" else _SEND_ARGS
        for err in _IntValidator(sub).iter_errors(item.get("args", {})):
            raise ScenarioError(err.message,
                                f"/workload/{i}/args" + _pointer(err))
