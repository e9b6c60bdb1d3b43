"""CTVC-Net and the NVC pipeline: modules, entropy coding, bitstreams,
the classical baseline codec, calibrated literature RD models, and the
decoder layer graph consumed by the hardware model."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bitstream": (
        "FramePacket", "SequenceBitstream", "StreamCorruptionError",
        "StreamReader", "StreamWriter", "as_f32", "f16_bits", "f16_from_bits",
        "f32_bits", "f32_from_bits",
    ),
    ".classical": ("ClassicalCodec", "zigzag_indices"),
    # config classes and registry lookups load no NumPy
    ".configs": (
        "CTVCConfig", "ClassicalCodecConfig", "DATASETS", "METHODS",
        "RDModelConfig",
    ),
    ".ctvc": ("CTVCNet",),
    ".entropy": (
        "ArithmeticDecoder", "ArithmeticEncoder", "CacmBackend",
        "EntropyBackend", "LaplacianModel", "SymbolModel",
        "cached_laplacian", "cached_uniform_model", "decode_symbols",
        "encode_symbols", "estimate_bits",
    ),
    ".entropy_registry": (
        "EntropyBackendError", "available_entropy_backends",
        "get_entropy_backend", "register_entropy_backend",
        "unregister_entropy_backend",
    ),
    ".rans": ("RansBackend",),
    ".rate_control": (
        "ABRController", "BudgetState", "CQPController",
        "CalibratedController", "QPBitsTable", "RateControlError",
        "RateController", "RateControllerSpec", "available_rate_controllers",
        "calibrate_tables", "create_rate_controller", "rate_controller_spec",
        "register_rate_controller", "unregister_rate_controller",
        "validate_rate_fields",
    ),
    ".layergraph": (
        "analysis_layers", "decoder_graph", "encoder_graph",
        "synthesis_layers",
    ),
    ".modules": (
        "CompressionAE", "DeformableCompensation", "FeatureExtraction",
        "FrameReconstruction", "MotionEstimation", "block_match",
        "dense_motion_field",
    ),
    ".rd_models": (
        "LITERATURE_BDBR", "RDModelCodec", "all_method_curves",
        "anchor_curve", "model_curve",
    ),
    ".sessions": (
        "DecoderSession", "EncoderSession", "GopDecoderSession",
        "GopEncoderSession", "SessionError",
    ),
    ".swin_am": ("SwinAM",),
})
