"""Malpedia-style malware family alias resolution (paper [64]).

The paper manually resolved AVClass2 family labels against Malpedia's alias
inventory. This table covers the families the synthetic VT store emits plus
the common alias spellings vendors use.
"""

from __future__ import annotations

from typing import Dict

#: alias -> canonical family name.
_ALIASES: Dict[str, str] = {
    # emotet and friends
    "emotet": "emotet",
    "geodo": "emotet",
    "heodo": "emotet",
    # njrat
    "njrat": "njrat",
    "bladabindi": "njrat",
    # darkcomet
    "darkcomet": "darkcomet",
    "fynloski": "darkcomet",
    # agenttesla
    "agenttesla": "agenttesla",
    "agensla": "agenttesla",
    "negasteal": "agenttesla",
    # formbook
    "formbook": "formbook",
    "xloader": "formbook",
    # gandcrab
    "gandcrab": "gandcrab",
    "grandcrab": "gandcrab",
    # stop/djvu
    "stop": "stop",
    "djvu": "stop",
    # upatre
    "upatre": "upatre",
    "waski": "upatre",
    # virut / sality
    "virut": "virut",
    "sality": "sality",
    "kuku": "sality",
    # PUP families
    "installcore": "installcore",
    "opencandy": "opencandy",
    # miners
    "miner": "coinminer",
    "coinminer": "coinminer",
    "xmrig": "coinminer",
}


def resolve_alias(token: str) -> str:
    """Canonical family for a label token (identity for unknown tokens)."""
    return _ALIASES.get(token.lower(), token.lower())
