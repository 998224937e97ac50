// Fixture: the storage engine compressing checkpoint bytes itself. A
// checkpoint frame's head says how its body is compressed, and only the
// frame codec (runtime/ckpt_pipeline.cc) reads or writes that.
// Violates ckpt-codec-in-pipeline.
#include "serde/block_codec.h"

void StoreLearningTheFrameCodec() {}
