"""AES block cipher implemented from the FIPS-197 specification.

OMA DRM 2 mandates 128-bit AES: AES-CBC for content encryption inside the
DCF and AES Key Wrap for the two-layer key chain (``K_CEK`` under ``K_REK``,
``K_MAC‖K_REK`` under the KDF2-derived KEK, and the installed ``C2dev`` blob
under the device key ``K_DEV``).

The S-box is derived from first principles (GF(2^8) inversion plus the
affine transform) rather than pasted as a constant table. There are two
cipher cores:

* The per-block core uses the classic 32-bit T-table formulation: each
  T-table entry combines SubBytes, ShiftRows and MixColumns for one byte
  position, so a round is 16 table lookups and a handful of XORs. It
  runs CBC encryption and key wrap, which are chains, and is the
  reference every other path is checked against. Decryption works on
  the four 32-bit words of a block (:meth:`AES.decrypt_words`), which
  RFC 3394 unwrap calls directly.
* :meth:`AES.decrypt_blocks` decrypts any number of independent blocks
  in whole-buffer steps, which is what CBC decryption needs: there no
  block depends on another block's result. The state is byte-sliced:
  segment p holds octet p of every block. InvShiftRows and the
  InvMixColumns row rotations are then fixed orders of the 16 segments,
  so each round of the equivalent inverse cipher is four
  ``bytes.translate`` lookups through tables of InvSBox∘{14, 11, 13, 9}·x
  on the segments joined in those orders, and three integer XORs. The
  round-key octet is constant within a segment, so AddRoundKey is folded
  into the lookup tables. Its cost per round is a fixed number of buffer
  operations, whatever the block count.

Neither core is constant-time. The T-tables are indexed by state words,
and the key-folded ``translate`` tables are chosen by round-key octets
and indexed by state octets: the same data-dependent lookups, which a
cache-timing observer can see.

192- and 256-bit keys are supported as well (the ROAP registration phase
lets peers negotiate non-default algorithms), but all DRM defaults use
128-bit keys.
"""

import functools
import struct

from .errors import InvalidBlockError, InvalidKeyError

#: AES block size in octets (the standard fixes Nb = 4 words).
BLOCK_SIZE = 16

_KEY_ROUNDS = {16: 10, 24: 12, 32: 14}
_MASK32 = 0xFFFFFFFF


def _build_gf_tables() -> tuple:
    """Exp/log tables over GF(2^8) with generator 3 (x + 1)."""
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value ^= (value << 1) ^ (0x11B if value & 0x80 else 0)
        value &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_GF_EXP, _GF_LOG = _build_gf_tables()


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) with the AES polynomial."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _build_sbox() -> tuple:
    """Compute the AES S-box: GF(2^8) inverse followed by the affine map."""
    sbox = [0] * 256
    for byte in range(256):
        inverse = 0 if byte == 0 else _GF_EXP[255 - _GF_LOG[byte]]
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((inverse << shift) | (inverse >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[byte] = result
    return tuple(sbox)


_SBOX = _build_sbox()
_INV_SBOX = tuple(_SBOX.index(value) for value in range(256))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


def _build_encrypt_tables() -> tuple:
    """T-tables: T0[b] = (2s, s, s, 3s) as a 32-bit word, rotations for T1-3."""
    t0 = []
    for byte in range(256):
        s = _SBOX[byte]
        word = (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
        t0.append(word)
    t1 = [((w >> 8) | (w << 24)) & _MASK32 for w in t0]
    t2 = [((w >> 16) | (w << 16)) & _MASK32 for w in t0]
    t3 = [((w >> 24) | (w << 8)) & _MASK32 for w in t0]
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def _build_decrypt_tables() -> tuple:
    """Inverse T-tables: D0[b] = (14s', 9s', 13s', 11s') with s' = InvSBox[b]."""
    d0 = []
    for byte in range(256):
        s = _INV_SBOX[byte]
        word = ((_gf_mul(s, 14) << 24) | (_gf_mul(s, 9) << 16)
                | (_gf_mul(s, 13) << 8) | _gf_mul(s, 11))
        d0.append(word)
    d1 = [((w >> 8) | (w << 24)) & _MASK32 for w in d0]
    d2 = [((w >> 16) | (w << 16)) & _MASK32 for w in d0]
    d3 = [((w >> 24) | (w << 8)) & _MASK32 for w in d0]
    return tuple(d0), tuple(d1), tuple(d2), tuple(d3)


_T0, _T1, _T2, _T3 = _build_encrypt_tables()
_D0, _D1, _D2, _D3 = _build_decrypt_tables()

#: ``bytes.translate`` tables for the whole-buffer inverse cipher: the
#: inverse S-box fused with each InvMixColumns coefficient, in the order
#: (14, 11, 13, 9) in which a column's row r takes them from rows
#: r, r+1, r+2, r+3.
_INV_ROUND_TABLES = tuple(
    bytes(_gf_mul(s, factor) for s in _INV_SBOX) for factor in (14, 11, 13, 9)
)
_INV_SBOX_TABLE = bytes(_INV_SBOX)


@functools.cache
def _keyed_tables() -> tuple:
    """The ``translate`` tables :meth:`AES.decrypt_blocks` folds keys into.

    Returns three tuples indexed by a round-key octet k: x XOR k (the
    first AddRoundKey), InvSBox then 14·x, XOR k (term 0 of an inner
    round), and InvSBox XOR k (the last round). The XOR tables are built
    on integers (k times 0x0101...01 repeats k in every octet), ~20×
    cheaper than a per-octet loop. Built on the first whole-buffer
    decryption, so a process that never decrypts content neither pays
    for them nor holds their 192 KB.
    """
    identity = int.from_bytes(bytes(range(256)), "big")
    ones = int.from_bytes(b"\x01" * 256, "big")
    xor = tuple((identity ^ k * ones).to_bytes(256, "big")
                for k in range(256))
    return (xor,
            tuple(_INV_ROUND_TABLES[0].translate(table) for table in xor),
            tuple(_INV_SBOX_TABLE.translate(table) for table in xor))


#: Segment orders of the byte-sliced inverse round. Segment p = 4c + r
#: holds octet p (row r of column c) of every block. Term m of
#: InvMixColumns (coefficient 14, 11, 13, 9) for output segment
#: q = 4c + j reads row i = (j + m) mod 4 of column c after
#: InvShiftRows, which is segment 4·((c − i) mod 4) + i before it.
#: ``_TERM_SOURCES[0]`` is InvShiftRows itself.
_TERM_SOURCES = tuple(
    tuple(4 * ((q // 4 - (q % 4 + m) % 4) % 4) + (q % 4 + m) % 4
          for q in range(BLOCK_SIZE))
    for m in range(4)
)


def _inv_mix_word(word: int) -> int:
    """Apply InvMixColumns to one 32-bit column.

    The forward S-box cancels the inverse S-box built into each inverse
    T-table, leaving row r's InvMixColumns contribution rotated into place.
    """
    return (_D0[_SBOX[word >> 24]] ^ _D1[_SBOX[(word >> 16) & 0xFF]]
            ^ _D2[_SBOX[(word >> 8) & 0xFF]] ^ _D3[_SBOX[word & 0xFF]])


class AES:
    """AES block cipher with a fixed key (key schedule run once).

    The per-instance key schedule mirrors the hardware reality the paper's
    cost model captures: the constant offset in Table 1's software AES
    figures is the key-scheduling cost, paid once per keyed operation.
    """

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidKeyError("AES key must be bytes")
        key = bytes(key)
        if len(key) not in _KEY_ROUNDS:
            raise InvalidKeyError(
                "AES key must be 16, 24 or 32 octets, got %d" % len(key)
            )
        self.key_size = len(key)
        self.rounds = _KEY_ROUNDS[len(key)]
        self._enc_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list:
        """Rijndael key expansion into 32-bit words, 4 per round key."""
        nk = len(key) // 4
        words = list(struct.unpack(">%dL" % nk, key))
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & _MASK32  # RotWord
                temp = ((_SBOX[(temp >> 24) & 0xFF] << 24)
                        | (_SBOX[(temp >> 16) & 0xFF] << 16)
                        | (_SBOX[(temp >> 8) & 0xFF] << 8)
                        | _SBOX[temp & 0xFF])
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = ((_SBOX[(temp >> 24) & 0xFF] << 24)
                        | (_SBOX[(temp >> 16) & 0xFF] << 16)
                        | (_SBOX[(temp >> 8) & 0xFF] << 8)
                        | _SBOX[temp & 0xFF])
            words.append(words[i - nk] ^ temp)
        return [words[4 * r:4 * r + 4] for r in range(self.rounds + 1)]

    @functools.cached_property
    def _dec_keys(self) -> list:
        """Equivalent-inverse-cipher round keys (FIPS-197 §5.3.5).

        Derived on the first decryption, so an encrypt-only instance
        (CBC encryption, key wrap) never pays for them.
        """
        dec_keys = [list(rk) for rk in reversed(self._enc_keys)]
        for r in range(1, self.rounds):
            dec_keys[r] = [_inv_mix_word(w) for w in dec_keys[r]]
        return dec_keys

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-octet block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                "AES block must be 16 octets, got %d" % len(block)
            )
        keys = self._enc_keys
        s0, s1, s2, s3 = struct.unpack(">4L", block)
        k = keys[0]
        s0 ^= k[0]
        s1 ^= k[1]
        s2 ^= k[2]
        s3 ^= k[3]
        for r in range(1, self.rounds):
            k = keys[r]
            t0 = (_T0[s0 >> 24] ^ _T1[(s1 >> 16) & 0xFF]
                  ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ k[0])
            t1 = (_T0[s1 >> 24] ^ _T1[(s2 >> 16) & 0xFF]
                  ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ k[1])
            t2 = (_T0[s2 >> 24] ^ _T1[(s3 >> 16) & 0xFF]
                  ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ k[2])
            t3 = (_T0[s3 >> 24] ^ _T1[(s0 >> 16) & 0xFF]
                  ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ k[3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = keys[self.rounds]
        b0 = ((_SBOX[s0 >> 24] << 24) | (_SBOX[(s1 >> 16) & 0xFF] << 16)
              | (_SBOX[(s2 >> 8) & 0xFF] << 8) | _SBOX[s3 & 0xFF]) ^ k[0]
        b1 = ((_SBOX[s1 >> 24] << 24) | (_SBOX[(s2 >> 16) & 0xFF] << 16)
              | (_SBOX[(s3 >> 8) & 0xFF] << 8) | _SBOX[s0 & 0xFF]) ^ k[1]
        b2 = ((_SBOX[s2 >> 24] << 24) | (_SBOX[(s3 >> 16) & 0xFF] << 16)
              | (_SBOX[(s0 >> 8) & 0xFF] << 8) | _SBOX[s1 & 0xFF]) ^ k[2]
        b3 = ((_SBOX[s3 >> 24] << 24) | (_SBOX[(s0 >> 16) & 0xFF] << 16)
              | (_SBOX[(s1 >> 8) & 0xFF] << 8) | _SBOX[s2 & 0xFF]) ^ k[3]
        return struct.pack(">4L", b0, b1, b2, b3)

    def decrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> tuple:
        """Decrypt one block given as four big-endian 32-bit words."""
        keys = self._dec_keys
        k = keys[0]
        s0 ^= k[0]
        s1 ^= k[1]
        s2 ^= k[2]
        s3 ^= k[3]
        for r in range(1, self.rounds):
            k = keys[r]
            t0 = (_D0[s0 >> 24] ^ _D1[(s3 >> 16) & 0xFF]
                  ^ _D2[(s2 >> 8) & 0xFF] ^ _D3[s1 & 0xFF] ^ k[0])
            t1 = (_D0[s1 >> 24] ^ _D1[(s0 >> 16) & 0xFF]
                  ^ _D2[(s3 >> 8) & 0xFF] ^ _D3[s2 & 0xFF] ^ k[1])
            t2 = (_D0[s2 >> 24] ^ _D1[(s1 >> 16) & 0xFF]
                  ^ _D2[(s0 >> 8) & 0xFF] ^ _D3[s3 & 0xFF] ^ k[2])
            t3 = (_D0[s3 >> 24] ^ _D1[(s2 >> 16) & 0xFF]
                  ^ _D2[(s1 >> 8) & 0xFF] ^ _D3[s0 & 0xFF] ^ k[3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = keys[self.rounds]
        return (((_INV_SBOX[s0 >> 24] << 24)
                 | (_INV_SBOX[(s3 >> 16) & 0xFF] << 16)
                 | (_INV_SBOX[(s2 >> 8) & 0xFF] << 8)
                 | _INV_SBOX[s1 & 0xFF]) ^ k[0],
                ((_INV_SBOX[s1 >> 24] << 24)
                 | (_INV_SBOX[(s0 >> 16) & 0xFF] << 16)
                 | (_INV_SBOX[(s3 >> 8) & 0xFF] << 8)
                 | _INV_SBOX[s2 & 0xFF]) ^ k[1],
                ((_INV_SBOX[s2 >> 24] << 24)
                 | (_INV_SBOX[(s1 >> 16) & 0xFF] << 16)
                 | (_INV_SBOX[(s0 >> 8) & 0xFF] << 8)
                 | _INV_SBOX[s3 & 0xFF]) ^ k[2],
                ((_INV_SBOX[s3 >> 24] << 24)
                 | (_INV_SBOX[(s2 >> 16) & 0xFF] << 16)
                 | (_INV_SBOX[(s1 >> 8) & 0xFF] << 8)
                 | _INV_SBOX[s0 & 0xFF]) ^ k[3])

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-octet block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidBlockError(
                "AES block must be 16 octets, got %d" % len(block)
            )
        return struct.pack(">4L",
                           *self.decrypt_words(*struct.unpack(">4L", block)))

    def decrypt_blocks(self, data: bytes, iv: bytes) -> bytes:
        """CBC-decrypt every 16-octet block of ``data`` under ``iv`` at once.

        Runs the equivalent inverse cipher (FIPS-197 §5.3.5) on a
        byte-sliced state: segment p holds octet p of every block
        (``data[p::16]``). InvShiftRows and the InvMixColumns row
        rotations are fixed segment orders (``_TERM_SOURCES``), so a
        round is four ``translate`` lookups on the segments joined in
        those orders and three integer XORs, whatever the block count.
        Within a segment every block meets the same round-key octet k,
        so AddRoundKey needs no buffer-sized key: the first is a
        ``translate`` through x XOR k as the segments are cut, each
        inner one is folded into term 0's table, the last into the
        InvSBox table. The CBC chaining, block i of the result XOR block
        i of ``iv ‖ data``, is the one integer XOR that ends the call.
        Equal to :meth:`decrypt_block` applied block by block and chained.
        """
        size = len(data)
        if size % BLOCK_SIZE != 0:
            raise InvalidBlockError(
                "AES input must be a multiple of 16 octets, got %d" % size
            )
        if len(iv) != BLOCK_SIZE:
            raise InvalidBlockError(
                "CBC IV must be 16 octets, got %d" % len(iv))
        count = size // BLOCK_SIZE
        keys = [struct.pack(">4L", *words) for words in self._dec_keys]
        xor_tables, round_tables, last_tables = _keyed_tables()
        join = b"".join
        segments = [data[p::BLOCK_SIZE].translate(xor_tables[k])
                    for p, k in enumerate(keys[0])]
        for key in keys[1:self.rounds]:
            state = int.from_bytes(join([
                segments[source].translate(round_tables[k])
                for source, k in zip(_TERM_SOURCES[0], key)]), "big")
            for sources, table in zip(_TERM_SOURCES[1:],
                                      _INV_ROUND_TABLES[1:]):
                state ^= int.from_bytes(
                    join([segments[source] for source in sources]).translate(
                        table), "big")
            state = state.to_bytes(size, "big")
            segments = [state[count * p:count * (p + 1)]
                        for p in range(BLOCK_SIZE)]
        del state  # freed before the output buffer is allocated
        out = bytearray(size)
        for q, (source, k) in enumerate(zip(_TERM_SOURCES[0],
                                            keys[self.rounds])):
            out[q::BLOCK_SIZE] = segments[source].translate(last_tables[k])
        return (int.from_bytes(out, "big")
                ^ int.from_bytes((iv + data)[:size], "big")).to_bytes(
                    size, "big")
