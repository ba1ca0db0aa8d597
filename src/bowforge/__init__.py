"""Exact bow-diagram combinatorics for affine type A, with an independent oracle."""
