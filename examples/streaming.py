"""Streaming sessions: frame-at-a-time encode/decode, O(1) memory.

The batch API buffers the whole clip; real services cannot.  This
example drives the streaming redesign end to end:

1. raw session API — ``open_encoder()``, ``push``/``flush`` packets out
   as frames arrive, into an incremental version-4 container file;
2. ``open_decoder()`` + ``StreamReader`` — packets in, frames pulled
   out, never holding more than one frame;
3. the ``Pipeline`` facade's streaming mode with per-frame progress
   callbacks;
4. the registered ``rd-model`` pseudo-codec sweeping a published RD
   curve through the exact same surface.

Run:  python examples/streaming.py
"""

import os
import tempfile

from repro.codec import StreamReader, StreamWriter
from repro.metrics import psnr
from repro.pipeline import Pipeline, create_codec, run_many
from repro.video import SceneConfig, iter_sequence

SCENE = SceneConfig(height=64, width=96, frames=6, seed=7)


def raw_session_round_trip(path: str) -> None:
    print("Raw session API (codec-level, file-to-file):")
    codec = create_codec("classical", qp=12.0)

    with open(path, "wb") as out:
        session = codec.open_encoder()
        writer = StreamWriter(out)
        for frame in iter_sequence(SCENE):  # lazy: one frame alive at a time
            for packet in session.push(frame):
                if writer.header is None:
                    writer.write_header(session.header)
                writer.write_packet(packet)
        for packet in session.flush():
            writer.write_packet(packet)
        total = writer.finalize()
    print(f"  encoded {writer.packets_written} packets, {total} bytes (v4)")

    with open(path, "rb") as handle:
        reader = StreamReader(handle)
        decoder = codec.open_decoder(reader.header, version=reader.version)
        qualities = [
            float(psnr(original, decoded))
            for original, decoded in zip(
                iter_sequence(SCENE), decoder.decode_iter(reader)
            )
        ]
    print(
        f"  decoded {len(qualities)} frames, "
        f"{sum(qualities) / len(qualities):.2f} dB mean PSNR"
    )


def facade_streaming(path: str) -> None:
    print("\nPipeline facade streaming mode (with progress callbacks):")
    session = Pipeline("ctvc", {"channels": 12, "seed": 1}, scene=SCENE).session()
    report = session.run(
        output=path,
        progress=lambda i, nbytes: print(f"  frame {i}: {nbytes} packet bytes"),
    )
    print(f"  {report.render()}")
    print(f"  container: {os.path.getsize(path)} bytes on disk")


def rd_model_sweep() -> None:
    print("\nLiterature methods through the same surface (rd-model codec):")
    reports = run_many(
        codecs=["rd-model"],
        codec_configs=[{"method": "dcvc", "point": p} for p in range(5)],
        scenes=[SCENE],
    )
    for report in reports:
        print(
            f"  dcvc point {report.codec_config['point']}: "
            f"{report.bpp:.3f} bpp, {report.mean_psnr:.2f} dB (calibrated)"
        )


def main():
    with tempfile.TemporaryDirectory() as tmp:
        raw_session_round_trip(os.path.join(tmp, "classical.nvca"))
        facade_streaming(os.path.join(tmp, "ctvc.nvca"))
    rd_model_sweep()


if __name__ == "__main__":
    main()
