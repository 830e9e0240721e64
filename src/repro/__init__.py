"""repro — reproduction of "Performance Considerations for an Embedded
Implementation of OMA DRM 2" (Thull & Sannino, DATE 2005).

The package implements, from scratch:

* :mod:`repro.crypto` — the mandated cryptographic algorithms (AES,
  SHA-1, HMAC-SHA1, AES Key Wrap, KDF2, RSA with PSS, the Figure 3 KEM),
* :mod:`repro.drm` — the OMA DRM 2 system model (CA/OCSP PKI, DCF,
  Rights Objects, REL, ROAP, DRM Agent, Rights Issuer, Content Issuer,
  domains),
* :mod:`repro.core` — the paper's contribution: the Table 1 cycle-cost
  model, SW/SW-HW/HW architecture profiles, operation metering and trace
  pricing, plus energy models,
* :mod:`repro.usecases` — the Music Player and Ringtone evaluation
  workloads with functional and modeled execution paths,
* :mod:`repro.analysis` — regeneration of every table and figure.

``import repro`` loads only this module: import the subpackage or
submodule you use (the CLI, ``python -m repro``, imports its command
helpers from their own submodules).

Quickstart::

    from repro.analysis import figure6, figure7
    print(figure6.generate().render())
    print(figure7.generate().render())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
