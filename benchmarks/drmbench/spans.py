"""Host-clock spans around the public functions of each ``repro`` layer.

The benchmark measures layers from the outside: :func:`install` replaces
each traced function, at the name its callers resolve, with a wrapper
that records a span (name, start, end, parent span, op index). Nothing
inside ``repro`` reads the host clock.

Self time is a span's duration minus the time its child spans cover.
The program is single-threaded, so children of one span never overlap
and that union is the sum of their durations.

Tracing is for a dedicated child process: the patches are never undone,
because the process exits when the traced run ends.
"""

import json
import time
from typing import Callable, Dict, List, Optional

#: Span records kept for the Chrome trace. Every call is still counted
#: and timed past this cap; only the per-call records stop, so a traced
#: kernel run cannot grow the trace without bound.
MAX_SPAN_RECORDS = 100_000


def _arg(index: int, name: str) -> Callable:
    """Read one positional-or-keyword argument of the wrapped call."""
    def read(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]
    return read


def _arg_len(index: int, name: str) -> Callable:
    read = _arg(index, name)
    return lambda args, kwargs, result: len(read(args, kwargs))


def _arg_value(index: int, name: str) -> Callable:
    read = _arg(index, name)
    return lambda args, kwargs, result: read(args, kwargs)


def _result_len(args, kwargs, result) -> int:
    return len(result)


class Tally:
    """Calls, self time and (where counted) octets of one layer name."""

    __slots__ = ("calls", "self_ns", "octets")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.octets = 0


class SpanRecorder:
    """Collects spans and per-name tallies; ``op`` tags new spans."""

    def __init__(self) -> None:
        self.op = -1
        self.tallies: Dict[str, Tally] = {}
        self.counts_octets = set()
        self.records: List[list] = []
        self.dropped = 0
        # One frame per open span: [record index or -1, child ns].
        self._stack: List[list] = []

    def wrap(self, name: str, function: Callable,
             octets: Optional[Callable] = None) -> Callable:
        """A span-recording replacement for ``function``."""
        tally = self.tallies.setdefault(name, Tally())
        if octets is not None:
            self.counts_octets.add(name)
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(records) < MAX_SPAN_RECORDS:
                index = len(records)
                records.append([name, 0, 0, parent, self.op])
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tally.calls += 1
                tally.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    records[index][1] = start
                    records[index][2] = end
            if octets is not None:
                tally.octets += octets(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def patch(self, owner, attribute: str, name: str,
              octets: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` (a class or module) with a span."""
        setattr(owner, attribute,
                self.wrap(name, getattr(owner, attribute), octets))

    def snapshot(self) -> Dict[str, List[int]]:
        """``name -> [calls, self_ns, octets]`` as of now."""
        return {name: [t.calls, t.self_ns, t.octets]
                for name, t in self.tallies.items()}

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": start / 1000.0, "dur": (end - start) / 1000.0,
            "args": {"op": op, "parent": parent, "span": index},
        } for index, (name, start, end, parent, op)
            in enumerate(self.records)]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def install() -> SpanRecorder:
    """Trace every layer boundary the per-layer metrics are read from."""
    from repro.core import meter, stats
    from repro.crypto.rng import HmacDrbg
    from repro.drm import session
    from repro.drm.agent import DRMAgent
    from repro.drm.rights_issuer import RightsIssuer
    from repro.drm.roap import faults, wire
    from repro.obs.slo import SLOMonitor
    from repro.sim import admission
    from repro.sim.kernel import Kernel
    from repro.usecases import world

    recorder = SpanRecorder()
    patch = recorder.patch
    plain = meter.PlainCrypto

    # crypto: the provider boundary every DRM actor calls through, plus
    # the DRBG and key generation that only set-up exercises.
    patch(plain, "sha1", "crypto.sha1", _arg_len(1, "data"))
    patch(plain, "hmac_sha1", "crypto.hmac", _arg_len(2, "data"))
    patch(plain, "hmac_verify", "crypto.hmac", _arg_len(2, "data"))
    patch(plain, "aes_cbc_encrypt", "crypto.aes_cbc",
          _arg_len(3, "plaintext"))
    for method in ("aes_cbc_decrypt", "aes_cbc_decrypt_raw"):
        patch(plain, method, "crypto.aes_cbc", _arg_len(3, "ciphertext"))
    for method in ("aes_wrap", "aes_unwrap"):
        patch(plain, method, "crypto.aes_wrap")
    for method in ("pss_sign", "pss_verify"):
        patch(plain, method, "crypto.rsa_pss")
    for method in ("kem_encrypt", "kem_decrypt"):
        patch(plain, method, "crypto.kem")
    patch(HmacDrbg, "random_bytes", "crypto.drbg", _arg_value(1, "length"))
    patch(world, "generate_keypair", "crypto.keygen")

    # core.meter: the metering layer above the provider. Its methods
    # call the traced PlainCrypto ones through super(), so their self
    # time is the bookkeeping alone.
    for method in ("sha1", "hmac_sha1", "hmac_verify", "aes_cbc_encrypt",
                   "aes_cbc_decrypt", "aes_cbc_decrypt_raw", "aes_wrap",
                   "aes_unwrap", "pss_sign", "pss_verify", "kem_encrypt",
                   "kem_decrypt"):
        patch(meter.MeteredCrypto, method, "core.meter")

    for method in ("register", "acquire", "install", "consume"):
        patch(DRMAgent, method, "drm.agent." + method)
    for method in ("hello", "register", "request_ro"):
        patch(RightsIssuer, method, "drm.ri." + method)
    # The codecs are imported by name into both transport modules.
    for module in (wire, faults):
        patch(module, "encode_message", "drm.wire.encode", _result_len)
        patch(module, "decode_message", "drm.wire.decode")
    # Backoff jitter hashes with the pure-Python SHA-1 outside the
    # provider, so it is timed where the session layer resolves it.
    patch(session, "deterministic_jitter", "core.jitter")

    patch(Kernel, "run", "sim.kernel.run")
    patch(Kernel, "spawn", "sim.kernel.spawn")
    for policy in (admission.AdmissionPolicy, admission.TokenBucket,
                   admission.CoDelShedder, admission.PriorityAdmission):
        if "admit" in vars(policy):
            patch(policy, "admit", "sim.admission.admit")
    patch(SLOMonitor, "observe", "obs.slo.observe")
    patch(stats.StreamingStats, "add", "core.stats.add")
    return recorder
