"""Memory hierarchy level ids and physical SRAM geometry.

Seven addressable levels exist in the mixture-of-experts design; the
attention design has no weight globals (weights never enter the attention
datapath, which multiplies activations against activations).

The small bottom-tier staging macros (query, key/value, spike, integration
staging) are lumped under the single calibrated ``act_buffer`` level; the
weight staging macro is ``weight_buffer``.
"""

ACT_GLB = "act_glb"
WEIGHT_GLB0 = "weight_glb0"
WEIGHT_GLB1 = "weight_glb1"
ACT_LB = "act_lb"
WEIGHT_LB = "weight_lb"
ACT_BUFFER = "act_buffer"
WEIGHT_BUFFER = "weight_buffer"

MOE_LEVELS = (ACT_GLB, WEIGHT_GLB0, WEIGHT_GLB1, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER)
MHA_LEVELS = (ACT_GLB, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER)

# words x word-width(bits) per level
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
