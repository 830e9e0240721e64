"""The paper's two evaluation use cases (§4) plus small test variants.

* **Music Player** — a 3.5 MB encrypted track; register, acquire, install,
  then listen five times.
* **Ringtone** — a 30 KB high-quality polyphonic ringtone; register,
  acquire, install, then the phone rings 25 times and the DRM Agent must
  unlock the file on every ring.

"The two use cases differ mainly in the size of the encrypted file and in
the number of playbacks" — which is exactly what flips the dominant cost
from PKI (Ringtone) to bulk AES/SHA-1 (Music Player)."""

from .scenario import KIB, MIB, UseCase

#: Paper parameters: 3.5 Mbytes, five listens.
MUSIC_CONTENT_OCTETS = int(3.5 * MIB)
MUSIC_ACCESSES = 5

#: Paper parameters: 30 Kbytes, 25 calls.
RINGTONE_CONTENT_OCTETS = 30 * KIB
RINGTONE_ACCESSES = 25


def music_player() -> UseCase:
    """The Music Player use case at paper scale."""
    return UseCase(
        name="Music Player",
        content_octets=MUSIC_CONTENT_OCTETS,
        accesses=MUSIC_ACCESSES,
        content_type="audio/mpeg",
        metadata={"title": "Track 01", "author": "Example Artist"},
    )


def ringtone() -> UseCase:
    """The Ringtone use case at paper scale."""
    return UseCase(
        name="Ringtone",
        content_octets=RINGTONE_CONTENT_OCTETS,
        accesses=RINGTONE_ACCESSES,
        content_type="audio/midi",
        metadata={"title": "Polyphonic Ring 7", "author": "Tone Factory"},
    )
