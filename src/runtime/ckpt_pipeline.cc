#include "runtime/ckpt_pipeline.h"

#include <utility>

#include "common/macros.h"
#include "serde/block_codec.h"
#include "serde/frame.h"

namespace seep::runtime {

void MaterializeCaptureBuffer(const core::BufferState& live,
                              CheckpointCapture* cap) {
  if (cap->materialized) return;
  cap->materialized = true;
  if (!cap->ckpt.is_delta) {
    // Full capture: the extents cover the whole live region, so a straight
    // copy is both the cheapest and byte-identical to the old path.
    cap->ckpt.buffer = live;
    return;
  }
  for (const auto& [op_id, extent] : cap->extents) {
    if (extent.tuples == 0) continue;
    const core::TupleBuffer* buf = live.Get(op_id);
    if (buf == nullptr) continue;
    for (auto it = buf->UpperBound(extent.from_exclusive);
         it != buf->end() && it->timestamp <= extent.back; ++it) {
      cap->ckpt.buffer.Append(op_id, *it);
    }
  }
}

EncodedCkptFrame EncodeCheckpointFrame(const core::StateCheckpoint& ckpt,
                                       bool compress) {
  serde::Encoder enc;
  ckpt.Encode(&enc);  // Encode reserves EncodedSize() exactly
  std::vector<uint8_t> payload = std::move(enc).TakeBuffer();
  EncodedCkptFrame out;
  out.raw_bytes = payload.size();
  if (compress) {
    std::vector<uint8_t> packed = serde::BlockCompress(payload);
    if (packed.size() < payload.size()) {
      payload = std::move(packed);
      out.compressed = true;
    }
  }
  out.frame = serde::FramePayload(payload);
  return out;
}

[[nodiscard]] Result<core::StateCheckpoint> DecodeCheckpointFrame(
    const std::vector<uint8_t>& frame, uint64_t raw_bytes, bool compressed) {
  SEEP_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                        serde::UnframePayload(frame));
  if (compressed) {
    SEEP_ASSIGN_OR_RETURN(raw, serde::BlockDecompress(raw, raw_bytes));
  }
  if (raw.size() != raw_bytes) {
    return Status::Corruption("checkpoint frame size disagrees with header");
  }
  serde::Decoder dec(raw);
  return core::StateCheckpoint::Decode(&dec);
}

// --------------------------------------------------------------- serializer

CkptSerializer::CkptSerializer(sim::Simulation* sim, bool threaded,
                               bool compress, SimTime pump_interval,
                               CostFn cost, DoneFn on_done)
    : sim_(sim),
      threaded_(threaded),
      compress_(compress),
      pump_interval_(pump_interval),
      cost_(std::move(cost)),
      on_done_(std::move(on_done)) {}

CkptSerializer::~CkptSerializer() {
  // Flip the stop flags and move the thread handles out under the lock,
  // then join outside it: workers reacquire mu_ to publish their last frame
  // before exiting, and workers_ itself is mu_-guarded state the old code
  // iterated unlocked (lint rule: every workers_ access holds mu_).
  std::vector<std::thread> threads;
  {
    sync::MutexLock lock(&mu_);
    for (auto& [vm, ws] : workers_) {
      ws->stop = true;
      threads.push_back(std::move(ws->thread));
    }
  }
  cv_.NotifyAll();
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

SerializedCkptFrame CkptSerializer::BuildFrame(const Job& job, bool compress) {
  SerializedCkptFrame out;
  static_cast<EncodedCkptFrame&>(out) =
      EncodeCheckpointFrame(job.snapshot, compress);
  out.owner = job.owner;
  out.owner_op = job.owner_op;
  out.seq = job.seq;
  out.captured_at = job.captured_at;
  return out;
}

void CkptSerializer::Submit(Job job) {
  // Submit mutates driver-confined accounting (outstanding_) and, in sim
  // mode, schedules events: both are driver-thread-only operations.
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  ++outstanding_;
  if (!threaded_) {
    // Deterministic deferral: charge the modeled serialization cost as a
    // simulation delay, then build the frame inside the event. The closure
    // must stay copyable, hence the shared_ptr.
    const SimTime delay = cost_ ? cost_(job.snapshot) : 0;
    auto shared = std::make_shared<Job>(std::move(job));
    sim_->Schedule(delay, [this, shared]() {
      SEEP_ASSERT_RUN_ON(sync::DriverThread);
      --outstanding_;
      on_done_(BuildFrame(*shared, compress_));
    });
    return;
  }
  {
    sync::MutexLock lock(&mu_);
    std::unique_ptr<WorkerState>& ws = workers_[job.vm];
    if (ws == nullptr) {
      ws = std::make_unique<WorkerState>();
      ws->thread = std::thread([this, w = ws.get()]() { WorkerLoop(w); });
    }
    ws->queue.push_back(std::move(job));
  }
  cv_.NotifyAll();
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    sim_->Schedule(pump_interval_, [this]() {
      SEEP_ASSERT_RUN_ON(sync::DriverThread);
      Pump();
    });
  }
}

void CkptSerializer::Pump() {
  // The done-queue drain re-enters protocol code through on_done_; draining
  // it from any thread but the driver would hand checkpoint completions to
  // a thread that must not touch protocol state.
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  std::deque<SerializedCkptFrame> ready;
  {
    sync::MutexLock lock(&mu_);
    ready.swap(done_);
  }
  for (SerializedCkptFrame& frame : ready) {
    --outstanding_;
    on_done_(std::move(frame));
  }
  // Keep polling only while work is in flight, so a quiesced simulation
  // (RunAll) is not kept alive by an idle heartbeat.
  if (outstanding_ > 0) {
    sim_->Schedule(pump_interval_, [this]() {
      SEEP_ASSERT_RUN_ON(sync::DriverThread);
      Pump();
    });
  } else {
    pump_scheduled_ = false;
  }
}

void CkptSerializer::WorkerLoop(WorkerState* ws) {
  sync::ScopedThreadRole role(sync::CkptWorkerThread);
  while (true) {
    Job job;
    {
      sync::MutexLock lock(&mu_);
      cv_.Wait(&mu_, [this, ws]() {
        mu_.AssertHeld();
        return ws->stop || !ws->queue.empty();
      });
      if (ws->stop && ws->queue.empty()) return;
      job = std::move(ws->queue.front());
      ws->queue.pop_front();
    }
    SerializedCkptFrame frame = BuildFrame(job, compress_);
    sync::MutexLock lock(&mu_);
    done_.push_back(std::move(frame));
  }
}

// ------------------------------------------------------------------- chunks

void EncodeChunkHeader(const CkptChunkHeader& h, serde::Encoder* enc) {
  enc->AppendFixed32(h.owner);
  enc->AppendFixed32(h.owner_op);
  enc->AppendFixed32(h.holder);
  enc->AppendVarint64(h.seq);
  enc->AppendVarint64(h.index);
  enc->AppendVarint64(h.count);
  enc->AppendVarint64(h.frame_bytes);
  enc->AppendVarint64(h.raw_bytes);
  enc->AppendU8(h.compressed ? 1 : 0);
}

[[nodiscard]] Result<CkptChunkHeader> DecodeChunkHeader(serde::Decoder* dec) {
  CkptChunkHeader h;
  SEEP_ASSIGN_OR_RETURN(h.owner, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.owner_op, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.holder, dec->ReadFixed32());
  SEEP_ASSIGN_OR_RETURN(h.seq, dec->ReadVarint64());
  uint64_t index, count;
  SEEP_ASSIGN_OR_RETURN(index, dec->ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(count, dec->ReadVarint64());
  if (index > UINT32_MAX || count > UINT32_MAX) {
    return Status::Corruption("checkpoint chunk index out of range");
  }
  h.index = static_cast<uint32_t>(index);
  h.count = static_cast<uint32_t>(count);
  SEEP_ASSIGN_OR_RETURN(h.frame_bytes, dec->ReadVarint64());
  SEEP_ASSIGN_OR_RETURN(h.raw_bytes, dec->ReadVarint64());
  uint8_t compressed;
  SEEP_ASSIGN_OR_RETURN(compressed, dec->ReadU8());
  if (compressed > 1) {
    return Status::Corruption("checkpoint chunk compression flag invalid");
  }
  h.compressed = compressed != 0;
  return h;
}

namespace {
// Partial streams an overwhelmed or wedged holder keeps before evicting the
// oldest; each costs at most one frame of memory.
constexpr size_t kMaxPendingStreams = 64;
}  // namespace

std::optional<std::vector<uint8_t>> CkptChunkReassembler::OnChunk(
    const CkptChunkHeader& h, const uint8_t* data, size_t n) {
  if (h.count == 0 ||
      h.frame_bytes > serde::kDefaultMaxFramePayload + serde::kFrameHeaderBytes)
    return std::nullopt;
  const Key key{h.owner, h.seq, h.holder};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    if (h.index != 0) return std::nullopt;  // mid-stream chunk of a lost head
    while (pending_.size() >= kMaxPendingStreams) {
      pending_.erase(pending_.begin());
    }
    it = pending_.emplace(key, Pending{}).first;
    it->second.count = h.count;
    it->second.frame_bytes = h.frame_bytes;
    it->second.frame.reserve(h.frame_bytes);
  }
  Pending& p = it->second;
  if (h.index != p.next_index || h.count != p.count ||
      h.frame_bytes != p.frame_bytes || p.frame.size() + n > p.frame_bytes) {
    pending_.erase(it);  // corrupt stream: drop, next checkpoint supersedes
    return std::nullopt;
  }
  p.frame.insert(p.frame.end(), data, data + n);
  ++p.next_index;
  if (p.next_index < p.count) return std::nullopt;
  if (p.frame.size() != p.frame_bytes) {
    pending_.erase(it);
    return std::nullopt;
  }
  std::vector<uint8_t> frame = std::move(p.frame);
  pending_.erase(it);
  return frame;
}

void CkptChunkReassembler::ForgetThrough(InstanceId owner, uint64_t seq) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == owner && std::get<1>(it->first) <= seq) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void CkptChunkReassembler::Forget(const CkptChunkHeader& h) {
  pending_.erase(Key{h.owner, h.seq, h.holder});
}

void CkptChunkReassembler::ForgetOwner(InstanceId owner) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == owner) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace seep::runtime
