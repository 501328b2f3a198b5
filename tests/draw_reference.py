"""A campaign trial's degree, rebuilt from hashlib and randint's rule alone.

The bits of the sha256 digests of "{seed}:{trial}:degree", then
"{seed}:{trial}:degree:1", "…:degree:2" and so on, form one stream, each
digest read as a big-endian number from its lowest bit up. For n degrees,
read k = n.bit_length() bits at a time, each group as a number with its
last bit the most significant, and take the first below n.
"""

import hashlib


def reference_degree(seed, trial, low, high):
    n = high - low + 1
    k = n.bit_length()
    label = f"{seed}:{trial}:degree"
    bits, block, pos = "", 0, 0
    while True:
        while len(bits) - pos < k:
            name = label if block == 0 else f"{label}:{block}"
            word = int.from_bytes(hashlib.sha256(name.encode()).digest(), "big")
            bits += format(word, "0256b")[::-1]
            block += 1
        value = int(bits[pos:pos + k][::-1], 2)
        pos += k
        if value < n:
            return low + value
