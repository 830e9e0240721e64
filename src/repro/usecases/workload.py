"""Exact trace rescaling: paper-scale workloads from calibration runs.

The paper's figures need traces for a 3.5 MB DCF consumed five times —
workloads whose *structure* is content-size independent (the protocol
phases perform the same operations regardless of payload size) while only
two operations scale with content:

* the per-access **DCF hash** (SHA-1 over the whole DCF), and
* the per-access **content decryption** (AES-CBC over the payload).

:func:`run_modeled` therefore executes the full protocol functionally at a
small calibration size with a single consumption, then rewrites exactly
those records to the target size and replicates the consumption phase per
access. The rewrite uses the *real* serializer on a same-shape DCF, so the
scaled trace is bit-identical to what a full functional run would record —
a property the test suite verifies at sizes where both paths are feasible.
"""

import dataclasses
from typing import Optional

from ..core.costs import CostOptions
from ..core.meter import units_128
from ..core.trace import OperationTrace, Phase
from ..drm.dcf import DCF
from .runner import ScenarioRun, run_functional
from .scenario import UseCase

#: Content size used for the functional calibration pass.
DEFAULT_CALIBRATION_OCTETS = 2048

#: Trace labels whose block counts depend on the content size.
_DCF_HASH_LABEL = "dcf-hash"
_CONTENT_DECRYPT_LABEL = "content-decrypt"


def padded_payload_octets(content_octets: int) -> int:
    """AES-CBC ciphertext size for ``content_octets`` of plaintext.

    PKCS#7 always appends at least one octet, so the ciphertext is the
    next block multiple *above* the plaintext length.
    """
    return (content_octets // 16 + 1) * 16


def dcf_octets_for_content(reference_dcf: DCF, content_octets: int) -> int:
    """Exact canonical DCF size for a same-shape DCF with new content.

    Rebuilds the reference DCF with a placeholder payload of the target
    (padded) length and measures the real serializer output — no
    hand-maintained size formula to drift out of sync.
    """
    placeholder = bytes(padded_payload_octets(content_octets))
    resized = dataclasses.replace(reference_dcf,
                                  encrypted_data=placeholder)
    return len(resized.to_bytes())


def scale_trace(trace: OperationTrace, target_dcf_octets: int,
                target_payload_octets: int,
                accesses: int) -> OperationTrace:
    """Rescale a single-access calibration trace to the target workload.

    Non-consumption records pass through (with DCF-hash blocks rewritten
    where installation verifies the DCF too); the consumption group is
    rewritten to the target sizes and multiplied by ``accesses``.
    """
    scaled = OperationTrace()
    consumption = []
    for record in trace:
        if record.label == _DCF_HASH_LABEL:
            record = dataclasses.replace(
                record, blocks=units_128(target_dcf_octets))
        elif record.label == _CONTENT_DECRYPT_LABEL:
            record = dataclasses.replace(
                record, blocks=target_payload_octets // 16)
        if record.phase is Phase.CONSUMPTION:
            consumption.append(record)
        else:
            scaled.append(record)
    for record in consumption:
        scaled.append(record.scaled(accesses))
    return scaled


def run_modeled(use_case: UseCase, seed: str = "repro-world",
                options: CostOptions = CostOptions(),
                sign_device_ros: bool = False,
                verify_dcf_on_install: bool = False,
                kdev_optimization: bool = True,
                calibration_octets: int = DEFAULT_CALIBRATION_OCTETS
                ) -> ScenarioRun:
    """Produce a paper-scale :class:`ScenarioRun` via trace rescaling.

    Functionally identical protocol execution at ``calibration_octets``
    with one consumption (a :class:`WorkloadScaler`), then an exact
    rescale to ``use_case.content_octets`` and ``use_case.accesses``.
    """
    scaler = WorkloadScaler(
        use_case, seed=seed, options=options,
        sign_device_ros=sign_device_ros,
        verify_dcf_on_install=verify_dcf_on_install,
        kdev_optimization=kdev_optimization,
        calibration_octets=calibration_octets,
    )
    run = scaler.run
    sizes = dict(run.sizes)
    sizes["dcf"] = dcf_octets_for_content(run.dcf, use_case.content_octets)
    sizes["encrypted_payload"] = padded_payload_octets(
        use_case.content_octets)
    return ScenarioRun(
        use_case=use_case, world=run.world, trace=scaler.trace(),
        dcf=run.dcf, clear_content_octets=use_case.content_octets,
        sizes=sizes,
    )


class WorkloadScaler:
    """Amortize one calibration run across a whole parameter sweep.

    World construction (RSA key generation) costs seconds; trace rescaling
    costs microseconds. Ablation sweeps therefore run the protocol once
    and ask this scaler for as many (content size, accesses) points as
    they need.
    """

    def __init__(self, use_case: UseCase, seed: str = "repro-world",
                 options: CostOptions = CostOptions(),
                 sign_device_ros: bool = False,
                 verify_dcf_on_install: bool = False,
                 kdev_optimization: bool = True,
                 calibration_octets: int = DEFAULT_CALIBRATION_OCTETS
                 ) -> None:
        self.use_case = use_case
        calibration = use_case.scaled(calibration_octets)
        #: The single-access functional run every sweep point rescales.
        self.run = run_functional(
            calibration, seed=seed, options=options,
            sign_device_ros=sign_device_ros,
            verify_dcf_on_install=verify_dcf_on_install,
            kdev_optimization=kdev_optimization,
            consume_times=1,
        )

    def trace(self, content_octets: Optional[int] = None,
              accesses: Optional[int] = None) -> OperationTrace:
        """A paper-scale trace for one sweep point.

        Defaults fall back to the template use case's parameters.
        """
        if content_octets is None:
            content_octets = self.use_case.content_octets
        if accesses is None:
            accesses = self.use_case.accesses
        return scale_trace(
            self.run.trace,
            target_dcf_octets=dcf_octets_for_content(self.run.dcf,
                                                     content_octets),
            target_payload_octets=padded_payload_octets(content_octets),
            accesses=accesses,
        )
