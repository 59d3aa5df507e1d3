"""Table schemas: how bundle objects map onto columnar segments.

One schema per dataset of paper Table 3 — certificates, revocation
entries, WHOIS creation pairs, DNS delegation runs. Each schema
declares its column kinds (``i64`` / ``str`` / ``json``), the sorted
secondary indexes the joins read (writer and reader share
:data:`INDEX_KEY_COLUMNS`), and the row↔object codecs:
:func:`certificate_row` projects a certificate into a row for the
writer, and the ``*_at`` functions hydrate objects back for the
:class:`~repro.data.dataset.Dataset` tables. Hydration goes through the
ordinary constructors (:class:`~repro.pki.certificate.Certificate`,
:class:`~repro.revocation.crl.CrlEntry`, ...), so a certificate read
from a segment is value-identical — same dedup fingerprint, same
normalization — to the one that was written.

The certificates table carries one *derived* column, ``e2lds`` (the
sorted registered-domain list per certificate), so the shard
partitioner and the e2LD secondary index never have to hydrate a
``Certificate`` just to learn its routing keys.

The dns table stores *runs*: one row ``(first_day, apex, last_day,
records)`` per apex per maximal stretch of consecutive scan days on
which the apex was observed with identical records, in (first_day,
apex) order. Consecutive means adjacent on the scan calendar (the days
a scan ran), which the manifest stores once; a day the apex was not
observed ends its run.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.pki.certificate import Certificate, ExtendedKeyUsage, KeyUsage
from repro.pki.keys import KeyAlgorithm, KeyPair
from repro.revocation.crl import CrlEntry
from repro.revocation.reasons import RevocationReason

CERTS_TABLE = "certs"
REVOCATIONS_TABLE = "revocations"
WHOIS_TABLE = "whois"
DNS_TABLE = "dns"

TABLE_NAMES = (CERTS_TABLE, REVOCATIONS_TABLE, WHOIS_TABLE, DNS_TABLE)

#: column name -> kind, per table, in written order.
COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    CERTS_TABLE: (
        ("subject_cn", "str"),
        ("san_dns_names", "json"),
        ("key_id", "i64"),
        ("key_algorithm", "str"),
        ("key_owner_id", "str"),
        ("is_ca", "i64"),
        ("key_usage", "i64"),
        ("extended_key_usage", "json"),
        ("issuer_name", "str"),
        ("authority_key_id", "str"),
        ("crl_url", "json"),
        ("ocsp_url", "json"),
        ("certificate_policy", "str"),
        ("serial", "i64"),
        ("is_precertificate", "i64"),
        ("scts", "json"),
        ("not_before", "i64"),
        ("not_after", "i64"),
        ("e2lds", "json"),  # derived: sorted registered domains
    ),
    REVOCATIONS_TABLE: (
        ("issuer_name", "str"),
        ("authority_key_id", "str"),
        ("serial", "i64"),
        ("revocation_day", "i64"),
        ("reason", "str"),
    ),
    WHOIS_TABLE: (
        ("domain", "str"),
        ("creation_day", "i64"),
    ),
    DNS_TABLE: (
        ("first_day", "i64"),
        ("apex", "str"),
        ("last_day", "i64"),  # inclusive, on the scan calendar
        ("records", "json"),  # record-type value -> sorted rdata list
    ),
}

#: Key columns per (table, index); an index segment ``idx-<table>-<index>``
#: holds these columns, then the global ``row``, sorted. Only the certs
#: table is indexed, for the three joins: ``revkey`` (§4.1 key
#: compromise), ``e2ld`` (§4.2 registrant change) and ``managed`` (§4.3
#: managed TLS). The other tables are read whole or swept in row order.
INDEX_KEY_COLUMNS: Dict[str, Dict[str, Tuple[Tuple[str, str], ...]]] = {
    CERTS_TABLE: {
        "revkey": (("authority_key_id", "str"), ("serial", "i64")),
        "e2ld": (("e2ld", "str"),),
        "managed": (),
    },
    REVOCATIONS_TABLE: {},
    WHOIS_TABLE: {},
    DNS_TABLE: {},
}


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certificate_row(certificate: Certificate) -> Tuple[Any, ...]:
    """One certificate as a table row, in ``COLUMNS[CERTS_TABLE]`` order."""
    key = certificate.subject_key
    return (
        certificate.subject_cn,
        list(certificate.san_dns_names),
        key.key_id,
        key.algorithm.value,
        key.owner_id,
        int(certificate.is_ca),
        certificate.key_usage.value,
        [usage.value for usage in certificate.extended_key_usage],
        certificate.issuer_name,
        certificate.authority_key_id,
        certificate.crl_url,
        certificate.ocsp_url,
        certificate.certificate_policy,
        certificate.serial,
        int(certificate.is_precertificate),
        list(certificate.scts),
        certificate.not_before,
        certificate.not_after,
        sorted(certificate.e2lds()),
    )


def certificate_at(columns: Mapping[str, Sequence], row: int) -> Certificate:
    """Hydrate one certificate from column views (lazy cell reads only)."""
    key = KeyPair(
        key_id=columns["key_id"][row],
        algorithm=KeyAlgorithm(columns["key_algorithm"][row]),
        owner_id=columns["key_owner_id"][row],
    )
    return Certificate(
        subject_cn=columns["subject_cn"][row],
        san_dns_names=tuple(columns["san_dns_names"][row]),
        subject_key=key,
        is_ca=bool(columns["is_ca"][row]),
        key_usage=KeyUsage(columns["key_usage"][row]),
        extended_key_usage=tuple(
            ExtendedKeyUsage(value) for value in columns["extended_key_usage"][row]
        ),
        issuer_name=columns["issuer_name"][row],
        authority_key_id=columns["authority_key_id"][row],
        crl_url=columns["crl_url"][row],
        ocsp_url=columns["ocsp_url"][row],
        certificate_policy=columns["certificate_policy"][row],
        serial=columns["serial"][row],
        is_precertificate=bool(columns["is_precertificate"][row]),
        scts=tuple(columns["scts"][row]),
        not_before=columns["not_before"][row],
        not_after=columns["not_after"][row],
    )


# ---------------------------------------------------------------------------
# revocations
# ---------------------------------------------------------------------------


def revocation_entry_at(columns: Mapping[str, Sequence], row: int) -> CrlEntry:
    return CrlEntry(
        serial=columns["serial"][row],
        revocation_day=columns["revocation_day"][row],
        reason=RevocationReason[columns["reason"][row]],
    )
