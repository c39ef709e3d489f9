"""Memory hierarchy level ids and physical SRAM geometry.

``memory.KINDS`` lists each kind's levels; attention has no weight globals, as
weights never enter its datapath.  The small bottom-tier staging macros
(query, key/value, spike, integration staging) are lumped under the single
calibrated ``act_buffer`` level; the weight staging macro is ``weight_buffer``.
"""

ACT_GLB = "act_glb"
WEIGHT_GLB0 = "weight_glb0"
WEIGHT_GLB1 = "weight_glb1"
ACT_LB = "act_lb"
WEIGHT_LB = "weight_lb"
ACT_BUFFER = "act_buffer"
WEIGHT_BUFFER = "weight_buffer"
WEIGHT_BANKS = (WEIGHT_GLB0, WEIGHT_GLB1)  # expert e's weights are in bank e % len(WEIGHT_BANKS)

# words x word-width(bits) per level: the architecture, which no calibration flavor changes
LEVEL_GEOMETRY = {
    ACT_GLB: (8192, 128),
    WEIGHT_GLB0: (8192, 128),
    WEIGHT_GLB1: (8192, 128),
    ACT_LB: (3072, 128),
    WEIGHT_LB: (3072, 128),
    ACT_BUFFER: (96, 128),
    WEIGHT_BUFFER: (96, 128),
}


def level_width_bits(level: str) -> int:
    return LEVEL_GEOMETRY[level][1]


def width_words(bits, width):
    """Words of ``width`` bits needed to move ``bits``; ints or int arrays.

    Integer ceiling division: equal to ``math.ceil(bits / width)`` for every
    bits value below 2**53, where the float quotient is still exact, and
    exact above it.
    """
    return -(-bits // width)
