"""Source module: filesystem enumeration order escapes unsorted."""

import os


def discover(root):
    names = os.listdir(root)
    return names
