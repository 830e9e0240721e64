"""The OMA DRM 2 system model: actors, objects and the ROAP protocol.

* :mod:`~repro.drm.certificates` / :mod:`~repro.drm.ocsp` — the PKI
  substrate (CA, certificates, OCSP responder)
* :mod:`~repro.drm.dcf` — the DRM Content Format container
* :mod:`~repro.drm.rel` / :mod:`~repro.drm.ro` — rights expressions and
  Rights Objects (protected and installed forms)
* :mod:`~repro.drm.roap` — the Rights Object Acquisition Protocol messages
* :mod:`~repro.drm.agent` — the DRM Agent (the terminal; the metered side)
* :mod:`~repro.drm.rights_issuer` / :mod:`~repro.drm.content_issuer` —
  the server-side actors
* :mod:`~repro.drm.domain` — shared-license device domains
* :mod:`~repro.drm.storage` — the device's secure/ordinary storage split
* :mod:`~repro.drm.session` — resilient session layer: retries, backoff
  and terminal outcomes over an unreliable bearer
"""

from .agent import ConsumptionResult, DRMAgent, ExportResult
from .certificates import (Certificate, CertificationAuthority,
                           verify_certificate)
from .clock import DAY, SimulationClock, YEAR
from .content_issuer import ContentIssuer, LicenseGrant
from .dcf import DCF, ENCRYPTION_METHOD, package_content
from .domain import Domain, DomainManager
from .errors import (AcquisitionError, CertificateExpiredError,
                     CertificateRevokedError, ChannelError,
                     ChannelTimeoutError, ContextExpiredError,
                     DomainError, DRMError, InstallationError,
                     IntegrityError, NonceMismatchError,
                     NotRegisteredError, PermissionDeniedError,
                     RegistrationError, RoapStatusError, TrustError,
                     UnknownContentError, WireDecodeError)
from .identifiers import (DEFAULT_ALGORITHMS, ROAP_VERSION, content_id,
                          device_id, domain_id, rights_issuer_id,
                          rights_object_id)
from .ocsp import CertStatus, OCSPResponder, OCSPResponse, \
    verify_ocsp_response
from .rel import (CountConstraint, DatetimeConstraint, IntervalConstraint,
                  Permission, PermissionType, Rights, RightsEvaluator,
                  RightsState, play_count, unlimited)
from .rights_issuer import LicenseOffer, RIDeviceContext, RightsIssuer
from .roap.triggers import RoapTrigger, TriggerType
from .session import (Outcome, RetryPolicy, RoapSession, SessionOutcome,
                      SessionState)
from .ro import (Asset, InstalledRightsObject, ProtectedRightsObject,
                 RightsObject)
from .storage import (DeviceStorage, DomainContext, RIContext,
                      SecureStorage)

__all__ = [
    "ConsumptionResult", "DRMAgent", "ExportResult", "Certificate",
    "CertificationAuthority", "verify_certificate", "DAY",
    "SimulationClock", "YEAR", "ContentIssuer", "LicenseGrant", "DCF",
    "ENCRYPTION_METHOD", "package_content", "Domain", "DomainManager",
    "AcquisitionError", "CertificateExpiredError",
    "CertificateRevokedError", "ChannelError", "ChannelTimeoutError",
    "ContextExpiredError", "DomainError", "DRMError",
    "InstallationError", "IntegrityError", "NonceMismatchError",
    "NotRegisteredError", "PermissionDeniedError", "RegistrationError",
    "RoapStatusError", "TrustError", "UnknownContentError",
    "WireDecodeError", "DEFAULT_ALGORITHMS",
    "ROAP_VERSION", "content_id", "device_id", "domain_id",
    "rights_issuer_id", "rights_object_id", "CertStatus", "OCSPResponder",
    "OCSPResponse", "verify_ocsp_response", "CountConstraint",
    "DatetimeConstraint", "IntervalConstraint", "Permission",
    "PermissionType", "Rights", "RightsEvaluator", "RightsState",
    "play_count", "unlimited", "LicenseOffer", "RIDeviceContext",
    "RightsIssuer",
    "Outcome", "RetryPolicy", "RoapSession", "SessionOutcome",
    "SessionState",
    "Asset", "InstalledRightsObject", "ProtectedRightsObject",
    "RightsObject", "RoapTrigger", "TriggerType",
    "DeviceStorage", "DomainContext", "RIContext", "SecureStorage",
]
