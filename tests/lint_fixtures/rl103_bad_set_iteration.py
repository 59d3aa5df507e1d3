"""BAD: merge/ordering paths walking bare sets in hash order."""


def merge_keys(before, after):
    out = []
    for key in set(before) | set(after):
        out.append(key)
    return out


def union_comprehension(groups):
    return [item for item in {x for g in groups for x in g}]


def frozen_walk(entries):
    rows = []
    for entry in frozenset(entries):
        rows.append(entry)
    return rows


def owners_list(e2lds, owner):
    return list(set(e2lds) | {owner})


def label_tuple(name, cdn):
    return tuple({name, cdn})


def joined_names(a, b):
    return ",".join(set(a) | set(b))
