"""The paper's primary contribution: fast-algorithm-based sparsity.

Eq. (1)-(9) of the paper: united Winograd/FTA transforms, the
importance-factor matrix Q, transform-domain pruning, compressed sparse
weights, full-feature-map sparse fast conv/deconv execution, and the
co-design orchestration that ties the algorithm to the NVCA hardware
model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".codesign": ("CodesignReport", "NVCACodesign"),
    ".importance": (
        "importance_matrix", "importance_matrix_naive", "importance_tensor_h",
    ),
    ".layerspec": ("LayerGraph", "LayerSpec"),
    ".ops": (
        "SparseExecutor", "extract_tiles", "fast_conv2d", "fast_deconv2d",
        "multiplications", "spec_for_layer",
    ),
    ".pruning": (
        "PrunedKernel", "prune_transform_weights", "sparsity_of_mask",
    ),
    ".sparse": ("CompressedKernel", "compress_kernel"),
    ".strategy": (
        "LayerSparsityInfo", "SparseStrategy", "SparsityReport",
        "compressed_kernels", "pruned_kernels",
    ),
    ".transforms": (
        "DEFAULT_POINTS", "PAPER_F23", "PAPER_T3_64", "TransformSpec",
        "cook_toom_conv", "fta_deconv",
    ),
})
