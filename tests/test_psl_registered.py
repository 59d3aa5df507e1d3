"""Tests for DomainName and e2LD helpers over the embedded PSL."""

import pytest

from repro.psl.registered import (
    DomainName,
    e2ld,
    is_subdomain_of,
    matches_wildcard,
)


class TestDomainName:
    def test_normalizes_case_and_dots(self):
        assert DomainName(" Foo.Example.COM. ").name == "foo.example.com"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DomainName("")

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            DomainName("exa mple.com")

    def test_rejects_leading_hyphen_label(self):
        with pytest.raises(ValueError):
            DomainName("-bad.com")

    def test_rejects_overlong_name(self):
        with pytest.raises(ValueError):
            DomainName(("a" * 63 + ".") * 5 + "com")

    def test_wildcard_only_leftmost(self):
        assert DomainName("*.example.com").is_wildcard
        with pytest.raises(ValueError):
            DomainName("www.*.example.com")

    def test_without_wildcard(self):
        assert DomainName("*.example.com").without_wildcard().name == "example.com"
        assert DomainName("example.com").without_wildcard().name == "example.com"

    def test_parent(self):
        assert DomainName("a.b.com").parent().name == "b.com"
        assert DomainName("com").parent() is None

    def test_labels(self):
        assert DomainName("a.b.com").labels == ("a", "b", "com")


class TestEffectiveDomains:
    def test_e2ld_generic(self):
        assert e2ld("www.example.com") == "example.com"

    def test_e2ld_uk(self):
        assert e2ld("shop.foo.co.uk") == "foo.co.uk"

    def test_e2ld_of_bare_suffix_is_none(self):
        assert e2ld("co.uk") is None

    def test_e2ld_wildcard_uses_base(self):
        assert e2ld("*.foo.com") == "foo.com"

    def test_cloudflaressl_private_suffix(self):
        # The PSL's private-section analogue: each sniNNN label is its own
        # registrable name under cloudflaressl.com.
        assert e2ld("sni12345.cloudflaressl.com") == "sni12345.cloudflaressl.com"


class TestSubdomainAndWildcards:
    def test_is_subdomain_of(self):
        assert is_subdomain_of("a.b.com", "b.com")
        assert is_subdomain_of("b.com", "b.com")
        assert not is_subdomain_of("ab.com", "b.com")  # label alignment

    def test_matches_wildcard_single_label(self):
        assert matches_wildcard("*.example.com", "www.example.com")
        assert not matches_wildcard("*.example.com", "a.b.example.com")
        assert not matches_wildcard("*.example.com", "example.com")

    def test_matches_exact(self):
        assert matches_wildcard("example.com", "EXAMPLE.com")
        assert not matches_wildcard("example.com", "www.example.com")
