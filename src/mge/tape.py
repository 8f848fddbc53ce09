"""Randomness tapes: the seeded SplitMix64 tape, replay and recording.

SeededTape is SplitMix64 (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014), a counter-based
generator: output t depends only on the seed plus t*gamma. The tape
computes the top bytes of its next outputs ahead, in one wide int pass
per refill, and every draw (draw, draw_nonzero, draw_block) is 1..8
bits wide and reads them in order; the look-ahead starts short and
doubles up to a fixed cap. The pass holds one 64-bit state per 64-bit
lane of one int and runs each of its two multiplies once on the even
lanes and once on the odd ones, so that a product's high half lands in
an empty lane (see _top_bytes). Each refill is rounded up to a power of
two, whose lane constants are built once, on first use, and cached for
every tape. A cap-sized refill that follows another one gets its lane
states by adding the cached cap*gamma step to the last ones, the even
and the odd lanes apart, not by multiplying the start state out again.
Its _state is the state that one scalar SplitMix64 step per draw would
have left, so equal _state means equal draws from there on. Only spawn
steps the scalar generator, once per child.

ReplayTape and DomainTape serve tape enumeration: one feeds back a
fixed list of values, the other records the draw schedule of a run.
"""

from __future__ import annotations

from functools import cache

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

DEFAULT_SEED = 0x243F6A8885A308D3

# A SeededTape computes its next outputs ahead of use, in one wide pass
# per refill: the first refill looks _AHEAD_FIRST draws ahead, each later
# one twice as far as the last, up to _AHEAD_CAP, which bounds the buffer
# that look-ahead alone makes a tape hold. A refill is rounded up to a
# power of two, so _lane_constants caches one entry per power of two.
_AHEAD_FIRST = 32
_AHEAD_CAP = 1024

# A lane's byte 7 is its top 8 bits; a w-bit draw keeps the top w of them.
_TOP_BITS = tuple(bytes(v >> (8 - w) for v in range(256)) for w in range(9))


@cache
def _lane_constants(count: int):
    """The constants of a count-lane refill, count a power of two >= 2.

    even has a lane of 64 one bits at every even lane (t = 0, 2, ...)
    and odd at every odd one; low34 and low37 hold a lane's low 34 and
    37 bits in every lane. Then, for the even lanes and for the odd
    ones: ones has 1 in each of them, ramp (t+1)*gamma mod 2^64 in lane
    t, and step count*gamma: added to the states of one count-lane
    refill, step gives those of the refill that follows.
    """
    ones = int.from_bytes((1).to_bytes(8, "little") * count, "little")
    even = int.from_bytes((b"\xff" * 8 + bytes(8)) * (count >> 1), "little")
    odd = even << 64
    ramp = int.from_bytes(b"".join(
        ((t * _GAMMA) & _M64).to_bytes(8, "little")
        for t in range(1, count + 1)), "little")
    step = ((count * _GAMMA) & _M64) * ones
    return (even, odd, ones * ((1 << 34) - 1), ones * ((1 << 37) - 1),
            ones & even, ones & odd, ramp & even, ramp & odd,
            step & even, step & odd)


def _top_bytes(z: int, count: int, even: int, odd: int, low34: int,
               low37: int) -> bytes:
    """Top bytes of the SplitMix64 outputs of the count states in z.

    z holds one 64-bit state per 64-bit lane; SplitMix64 output t
    depends only on the seed plus t*gamma, so all count outputs come
    from one pass of wide int arithmetic. A shift spills a lane's bits
    into its neighbour, so each xorshift masks the shifted value to the
    lane's low bits. A lane times a 64-bit constant overflows into the
    lane above, so each multiply runs once on the even lanes and once
    on the odd ones, each time with an empty slot above every lane to
    take its high half, which the merge of the two then drops.
    """
    x = z ^ ((z >> 30) & low34)
    xe = x & even
    z = (xe * _MIX1 & even) | ((x ^ xe) * _MIX1 & odd)
    x = z ^ ((z >> 27) & low37)
    xe = x & even
    # Only byte 7, bits 56..63 of the 64-bit z, is kept. The final
    # z ^= z >> 31 changes bits 0..32 of it only, so it is left out; the
    # merge still has to drop the high halves the products put in the
    # lanes above.
    z = (xe * _MIX2 & even) | ((x ^ xe) * _MIX2 & odd)
    return z.to_bytes(count << 3, "little")[7::8]


class SeededTape:
    """Counter-based deterministic source of uniform w-bit draws.

    Every draw, 1..8 bits wide, reads a buffer of the top bytes of the
    next outputs, filled ahead in one wide pass over 64-bit lanes of a
    power-of-two lane count, whose multiplies run on the even and the
    odd lanes apart; the look-ahead doubles on each refill up to
    _AHEAD_CAP, so a short-lived tape computes little it never reads.
    Back-to-back cap-sized refills step the kept lane states of the
    last one on, held as an even and an odd int. spawn() steps the
    scalar generator from the current position and drops the buffer
    and the kept lane states. Widths outside 1..8 raise ValueError
    before the tape moves.

    _state is the SplitMix64 state that scalar draws would have left:
    the state before the buffer plus gamma per buffered draw read. What
    the tape draws next depends on it alone, never on the buffer.
    """

    __slots__ = ("_base", "_buf", "_pos", "_ahead", "_states")

    def __init__(self, seed: int = DEFAULT_SEED):
        self._base = seed & _M64
        self._buf = b""
        self._pos = 0
        self._ahead = _AHEAD_FIRST
        # (even, odd) lane states of the last refill, if cap-sized
        self._states = None

    @property
    def _state(self) -> int:
        return (self._base + self._pos * _GAMMA) & _M64

    def _fill(self, count: int) -> None:
        """Keep the unread draws and buffer at least count from _state on."""
        rest = self._buf[self._pos:]
        ahead = self._ahead
        self._ahead = min(ahead << 1, _AHEAD_CAP)
        size = 1 << (max(count - len(rest), ahead) - 1).bit_length()
        (even, odd, low34, low37, ones_e, ones_o, ramp_e, ramp_o, step_e,
         step_o) = _lane_constants(size)
        kept = self._states
        if kept is not None and size == _AHEAD_CAP:
            # the last refill was cap-sized too and ended where this one
            # starts: step its lanes on instead of multiplying out anew;
            # a lane's carry lands in the empty slot above it
            ze = (kept[0] + step_e) & even
            zo = (kept[1] + step_o) & odd
        else:
            after = (self._base + len(self._buf) * _GAMMA) & _M64
            ze = (after * ones_e + ramp_e) & even
            zo = (after * ones_o + ramp_o) & odd
        self._states = (ze, zo) if size == _AHEAD_CAP else None
        self._base = self._state
        self._buf = rest + _top_bytes(ze | zo, size, even, odd, low34, low37)
        self._pos = 0

    def draw(self, width: int) -> int:
        if width - 1 & -8:  # one test: zero for widths 1..8 only
            raise ValueError(f"draws are 1..8 bits wide, got {width}")
        p = self._pos
        if p == len(self._buf):
            self._fill(1)
            p = 0
        self._pos = p + 1
        return self._buf[p] >> (8 - width)

    _draw = draw

    def draw_nonzero(self, width: int) -> int:
        # rejection keeps the distribution uniform on [1, 2^width); the
        # _draw alias, not the draw attribute, keeps it one call per request
        # for a wrapper installed on draw, and refuses a width outside 1..8
        while True:
            v = self._draw(width)
            if v:
                return v

    def draw_block(self, count: int, width: int) -> bytes:
        """The next count draw(width) values, one byte each.

        The tape ends where count draws would leave it.
        """
        if count < 0:
            raise ValueError(f"block draws need a count >= 0, got {count}")
        if not 1 <= width <= 8:
            raise ValueError(f"block draws are 1..8 bits wide, got {width}")
        if self._pos + count > len(self._buf):
            self._fill(count)
        p = self._pos
        self._pos = p + count
        out = self._buf[p:p + count]
        return out if width == 8 else out.translate(_TOP_BITS[width])

    def spawn(self) -> "SeededTape":
        """Derive an independent child tape (splittable use), seeded by
        one scalar SplitMix64 step from the current position."""
        z = self._base = (self._state + _GAMMA) & _M64
        self._buf, self._pos, self._states = b"", 0, None
        z = ((z ^ (z >> 30)) * _MIX1) & _M64
        z = ((z ^ (z >> 27)) * _MIX2) & _M64
        return SeededTape(z ^ (z >> 31))


class ReplayTape:
    """Feeds back a fixed list of values; used for tape enumeration."""

    __slots__ = ("_values", "_i")

    def __init__(self, values):
        self._values = values
        self._i = 0

    def draw(self, width):
        v = self._values[self._i]
        self._i += 1
        return v

    draw_nonzero = draw

    def draw_block(self, count, width):
        end = self._i + count
        if end > len(self._values):
            raise IndexError("replay tape exhausted")
        v = bytes(self._values[self._i:end])
        self._i = end
        return v

    def rewind(self, values=None):
        if values is not None:
            self._values = values
        self._i = 0


class DomainTape:
    """Records the draw schedule of a run; returns fixed legal values."""

    __slots__ = ("schedule",)

    def __init__(self):
        self.schedule = []

    def draw(self, width):
        self.schedule.append((width, False))
        return 0

    def draw_nonzero(self, width):
        self.schedule.append((width, True))
        return 1

    def draw_block(self, count, width):
        self.schedule.extend([(width, False)] * count)
        return bytes(count)
