#include "core/async_slot_store.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "analysis/race/race.hpp"
#include "core/slot_codec.hpp"
#include "core/spill_io.hpp"
#include "tensor/convert.hpp"

namespace edgetrain::core {

namespace {
[[noreturn]] void empty_slot(std::int32_t slot) {
  throw std::logic_error("SlotStore: slot " + std::to_string(slot) +
                         " is empty");
}

/// Drops a staged encoded blob, poisoning it first when nothing else
/// (an in-flight write or a decoding get()) still holds a reference.
void release_staged_blob(std::shared_ptr<std::vector<std::uint8_t>>& blob) {
  if (!blob) return;
  if (blob.use_count() == 1) detail::poison_blob(*blob);
  blob.reset();
}
}  // namespace

AsyncDiskSlotStore::AsyncDiskSlotStore(int num_slots, int first_disk_slot,
                                       std::string directory,
                                       AsyncDiskSlotStoreOptions options)
    : first_disk_slot_(first_disk_slot),
      directory_(std::move(directory)),
      options_(std::move(options)),
      ram_(static_cast<std::size_t>(num_slots)),
      disk_(static_cast<std::size_t>(num_slots)),
      slot_ratios_(static_cast<std::size_t>(num_slots), 1.0) {
  if (options_.write_staging_slots < 0) {
    throw std::invalid_argument(
        "AsyncDiskSlotStore: write_staging_slots must be >= 0 (got " +
        std::to_string(options_.write_staging_slots) + ")");
  }
  if (options_.read_staging_slots < 0) {
    throw std::invalid_argument(
        "AsyncDiskSlotStore: read_staging_slots must be >= 0");
  }
}

AsyncDiskSlotStore::~AsyncDiskSlotStore() {
  // Outstanding jobs reference this object; join them before tearing any
  // state down. Nothing can enqueue more work once destruction has begun.
  worker_.drain();
  for (std::int32_t slot = first_disk_slot_;
       slot < static_cast<std::int32_t>(disk_.size()); ++slot) {
    // Unconditional: a dropped-while-pending generation can leave a stale
    // file behind that no state flag remembers.
    std::remove(path_for(slot).c_str());
  }
}

std::string AsyncDiskSlotStore::path_for(std::int32_t slot) const {
  return directory_ + "/slot_" + std::to_string(slot) + ".ckpt";
}

// --------------------------------------------------------------------------
// put / get / drop
// --------------------------------------------------------------------------

void AsyncDiskSlotStore::put(std::int32_t slot, const Tensor& value) {
  if (!is_disk_slot(slot)) {
    // The RAM tier shares mu_ with everything else: resident_bytes() walks
    // ram_ from monitoring threads, so the fast path must not mutate the
    // vector's elements unlocked (it used to -- a real data race, now a
    // regression test under TSan).
    MutexLock lock(mu_);
    Tensor& held = ram_.at(static_cast<std::size_t>(slot));
    EDGETRAIN_RACE_WRITE(held, "AsyncDiskSlotStore ram_ slot");
    detail::poison_if_sole_owner(held);
    held = value;
    return;
  }
  std::shared_ptr<std::vector<std::uint8_t>> blob;
  if (options_.codec != SlotCodec::None) {
    // Encode on the calling thread (parallel kernels) before staging: the
    // write-behind buffer then holds compressed bytes, and -- for the lossy
    // casts -- every later get() decodes this exact blob, so results are
    // identical whether served from staging, prefetch, or a blocking read.
    blob = std::make_shared<std::vector<std::uint8_t>>(
        codec::encode(options_.codec, value));
  }
  MutexLock lock(mu_);
  // Back-pressure: the training thread may run at most write_staging_slots
  // spills ahead of the disk (one in flight in synchronous mode). Stale
  // (superseded) jobs still occupy staging until the worker retires them --
  // the queue itself is what is bounded.
  while (staged_writes_ >= std::max(options_.write_staging_slots, 1)) {
    cv_.wait(lock);
  }
  DiskSlot& state = disk_at(slot);
  invalidate_locked(state);
  state.state = State::WritePending;
  if (blob) {
    if (value.bytes() > 0) {
      slot_ratios_[static_cast<std::size_t>(slot)] =
          static_cast<double>(blob->size()) /
          static_cast<double>(value.bytes());
    }
    state.staged_blob = std::move(blob);
  } else {
    state.staged = value;  // shares the caller's storage; no copy
  }
  state.shape = value.shape();
  enqueue_write_locked(slot);
  if (options_.write_staging_slots == 0) {
    // Synchronous mode: return only once this write has landed or failed
    // (or a concurrent put/drop superseded it). run_write has released
    // the staging by then, so no staged bytes outlive the call.
    const std::uint64_t gen = state.generation;
    while (state.generation == gen && state.state == State::WritePending) {
      cv_.wait(lock);
    }
  }
}

Tensor AsyncDiskSlotStore::get(std::int32_t slot) {
  if (!is_disk_slot(slot)) {
    MutexLock lock(mu_);
    Tensor& slot_ref = ram_.at(static_cast<std::size_t>(slot));
    EDGETRAIN_RACE_READ(slot_ref, "AsyncDiskSlotStore ram_ slot");
    Tensor held = slot_ref;  // shared handle; copied under mu_
    if (!held.defined()) empty_slot(slot);
    return held;
  }
  MutexLock lock(mu_);
  for (;;) {
    DiskSlot& state = disk_at(slot);
    switch (state.state) {
      case State::Empty:
        empty_slot(slot);
      case State::Failed:
        // The background write for this slot failed; the error surfaces on
        // the get() that owns the slot, exactly as a synchronous put would
        // have thrown. Kept until put/drop so retries stay loud too.
        std::rethrow_exception(state.error);
      case State::WritePending: {
        // Write-behind cache hit: the payload is still staged in RAM.
        if (state.staged_blob) {
          // Decode the staged blob -- not the original tensor -- so lossy
          // codecs return the same values a post-flush read would. Shared
          // handle lets the write proceed while we decode unlocked.
          const std::shared_ptr<std::vector<std::uint8_t>> blob =
              state.staged_blob;
          const Shape shape = state.shape;
          lock.unlock();
          Tensor out =
              codec::decode(options_.codec, "AsyncDiskSlotStore", shape,
                            blob->data(), blob->size());
          lock.lock();
          ++write_behind_hits_;
          return out;
        }
        ++write_behind_hits_;
        return state.staged;
      }
      case State::OnDisk:
        break;
    }
    if (state.error) {
      // A prefetch came back corrupt (checksum/truncation). The restore
      // that would have consumed it must fail as loudly as a synchronous
      // read would have.
      std::rethrow_exception(state.error);
    }
    if (state.prefetched.defined()) {
      // Revolve-style schedules restore the same checkpoint several times
      // (once per sub-segment). When the lookahead shows this slot coming
      // up again, hand out a shared handle and KEEP the staging buffer:
      // the repeat restore is then served from RAM instead of re-reading
      // the spill file. Otherwise consume the buffer and free the budget.
      Tensor out = restored_again_soon_locked(slot)
                       ? state.prefetched
                       : take_prefetched_locked(state);
      ++prefetch_hits_;
      maybe_prefetch_locked();
      return out;
    }
    if (state.prefetch_queued) {
      // The IO thread is already reading this slot; joining it is cheaper
      // than issuing a second read. Re-evaluate from scratch afterwards
      // (a concurrent drop may have invalidated the slot meanwhile).
      const std::uint64_t gen = state.generation;
      while (disk_at(slot).generation == gen && disk_at(slot).prefetch_queued) {
        cv_.wait(lock);
      }
      continue;
    }
    // Prefetch never got to this slot: blocking read on the caller.
    const std::uint64_t gen = state.generation;
    const std::string path = path_for(slot);
    const Shape shape = state.shape;
    const std::uint32_t crc = state.crc;
    const std::size_t encoded_size = state.disk_bytes;
    lock.unlock();
    Tensor out;
    std::exception_ptr error;
    try {
      if (options_.io_fault) options_.io_fault(slot, /*is_write=*/false);
      if (options_.codec == SlotCodec::None) {
        out = spill::read_spill("AsyncDiskSlotStore", path, shape, crc);
      } else {
        std::vector<std::uint8_t> blob(encoded_size);
        spill::read_spill_blob("AsyncDiskSlotStore", path, encoded_size, crc,
                               blob.data());
        out = codec::decode(options_.codec, "AsyncDiskSlotStore", shape,
                            blob.data(), blob.size());
      }
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // A put/drop that raced with the read may have rewritten or removed
    // the file under us; whatever we read (or failed to read) belongs to a
    // dead generation, so re-evaluate instead of reporting a phantom error.
    if (disk_at(slot).generation != gen) continue;
    if (error) std::rethrow_exception(error);
    ++reads_;
    ++blocking_reads_;
    return out;
  }
}

void AsyncDiskSlotStore::drop(std::int32_t slot) {
  if (!is_disk_slot(slot)) {
    MutexLock lock(mu_);  // same discipline as put(): ram_ is guarded
    Tensor& held = ram_.at(static_cast<std::size_t>(slot));
    EDGETRAIN_RACE_WRITE(held, "AsyncDiskSlotStore ram_ slot");
    detail::poison_if_sole_owner(held);
    held.reset();
    return;
  }
  MutexLock lock(mu_);
  DiskSlot& state = disk_at(slot);
  const bool on_disk = state.state == State::OnDisk;
  invalidate_locked(state);
  if (on_disk) {
    // No job owns the file any more; a WritePending slot's file is instead
    // cleaned up by its (now stale) write job when the worker reaches it.
    std::remove(path_for(slot).c_str());
  }
}

// --------------------------------------------------------------------------
// Accounting
// --------------------------------------------------------------------------

std::size_t AsyncDiskSlotStore::resident_bytes() const {
  MutexLock lock(mu_);
  std::size_t total = 0;
  for (const Tensor& t : ram_) {
    EDGETRAIN_RACE_READ(t, "AsyncDiskSlotStore ram_ slot");
    if (t.defined()) total += t.bytes();
  }
  // Staging is real RAM: spills not yet flushed and restores fetched early
  // both count, so the "async is cheaper" story can never hide memory.
  for (const DiskSlot& d : disk_) {
    if (d.staged.defined()) total += d.staged.bytes();
    if (d.staged_blob) total += d.staged_blob->size();
    if (d.prefetched.defined()) total += d.prefetched.bytes();
  }
  return total;
}

std::size_t AsyncDiskSlotStore::external_bytes() const {
  MutexLock lock(mu_);
  return disk_bytes_;
}

double AsyncDiskSlotStore::measured_slot_ratio(std::int32_t slot) const {
  MutexLock lock(mu_);
  return slot_ratios_.at(static_cast<std::size_t>(slot));
}

std::int64_t AsyncDiskSlotStore::disk_writes() const {
  MutexLock lock(mu_);
  return writes_;
}
std::int64_t AsyncDiskSlotStore::disk_reads() const {
  MutexLock lock(mu_);
  return reads_;
}
std::int64_t AsyncDiskSlotStore::prefetch_hits() const {
  MutexLock lock(mu_);
  return prefetch_hits_;
}
std::int64_t AsyncDiskSlotStore::write_behind_hits() const {
  MutexLock lock(mu_);
  return write_behind_hits_;
}
std::int64_t AsyncDiskSlotStore::blocking_reads() const {
  MutexLock lock(mu_);
  return blocking_reads_;
}

void AsyncDiskSlotStore::flush() {
  MutexLock lock(mu_);
  while (staged_writes_ != 0) cv_.wait(lock);
}

// --------------------------------------------------------------------------
// Schedule lookahead
// --------------------------------------------------------------------------

void AsyncDiskSlotStore::begin_replay(const Schedule& schedule) {
  MutexLock lock(mu_);
  future_restores_.clear();
  restore_cursor_ = 0;
  const auto& actions = schedule.actions();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].type == ActionType::Restore &&
        is_disk_slot(actions[i].slot)) {
      future_restores_.emplace_back(static_cast<std::int64_t>(i),
                                    actions[i].slot);
    }
  }
  replay_active_ = true;
  maybe_prefetch_locked();
}

void AsyncDiskSlotStore::on_replay_position(std::int64_t next_action) {
  MutexLock lock(mu_);
  if (!replay_active_) return;
  // Retire entries up to AND including the action about to execute: its
  // get() is served synchronously either way, so prefetching it now buys
  // nothing -- worse, re-fetching the slot just consumed would hog the
  // read-staging budget and starve the genuinely-upcoming restores.
  while (restore_cursor_ < future_restores_.size() &&
         future_restores_[restore_cursor_].first <= next_action) {
    ++restore_cursor_;
  }
  maybe_prefetch_locked();
}

void AsyncDiskSlotStore::end_replay() {
  MutexLock lock(mu_);
  replay_active_ = false;
  future_restores_.clear();
  restore_cursor_ = 0;
  // Unconsumed prefetch buffers are dead weight once the tape is gone;
  // release the RAM (and the read-staging budget) immediately. In-flight
  // prefetch jobs keep their reservation until they land and the slot is
  // next touched, which the accounting below leaves intact.
  for (DiskSlot& d : disk_) {
    if (d.prefetched.defined()) {
      detail::poison_if_sole_owner(d.prefetched);
      d.prefetched.reset();
      --staged_reads_;
    }
  }
}

// --------------------------------------------------------------------------
// Locked helpers
// --------------------------------------------------------------------------

void AsyncDiskSlotStore::invalidate_locked(DiskSlot& slot) {
  ++slot.generation;  // voids every queued/in-flight job for this slot
  if (slot.staged.defined()) {
    // staged_writes_ is NOT decremented here: the superseded job still
    // occupies the worker queue and releases its staging unit itself.
    detail::poison_if_sole_owner(slot.staged);
    slot.staged.reset();
  }
  release_staged_blob(slot.staged_blob);
  if (slot.prefetch_queued) {
    slot.prefetch_queued = false;
    --staged_reads_;  // the stale job sees the generation bump and exits
  }
  if (slot.prefetched.defined()) {
    detail::poison_if_sole_owner(slot.prefetched);
    slot.prefetched.reset();
    --staged_reads_;
  }
  if (slot.state == State::OnDisk) {
    disk_bytes_ -= slot.disk_bytes;
    slot.disk_bytes = 0;
  }
  slot.state = State::Empty;
  slot.error = nullptr;
}

Tensor AsyncDiskSlotStore::take_prefetched_locked(DiskSlot& slot) {
  Tensor out = std::move(slot.prefetched);
  slot.prefetched.reset();
  --staged_reads_;
  return out;
}

bool AsyncDiskSlotStore::restored_again_soon_locked(std::int32_t slot) const {
  if (!replay_active_) return false;
  const std::size_t window_end =
      std::min(future_restores_.size(),
               restore_cursor_ + static_cast<std::size_t>(
                                     std::max(options_.lookahead_window, 0)));
  for (std::size_t i = restore_cursor_; i < window_end; ++i) {
    if (future_restores_[i].second == slot) return true;
  }
  return false;
}

void AsyncDiskSlotStore::maybe_prefetch_locked() {
  if (!replay_active_) return;
  const std::size_t window_end =
      std::min(future_restores_.size(),
               restore_cursor_ + static_cast<std::size_t>(
                                     std::max(options_.lookahead_window, 0)));
  for (std::size_t i = restore_cursor_; i < window_end; ++i) {
    DiskSlot& state = disk_at(future_restores_[i].second);
    if (state.prefetch_queued || state.prefetched.defined()) {
      continue;  // already settled; look further ahead
    }
    // Strictly in restore order: stop at the first entry whose payload is
    // not on disk yet (still staged, not stored, or failed). Jumping over
    // it to a later restore would pin the staging budget on the furthest
    // future while the very next restore falls back to a blocking read --
    // exactly backwards. A skipped-over WritePending slot is re-scanned by
    // run_write() the moment its flush lands.
    if (state.state != State::OnDisk || state.error) break;
    if (staged_reads_ >= options_.read_staging_slots) break;
    enqueue_prefetch_locked(future_restores_[i].second);
  }
}

void AsyncDiskSlotStore::enqueue_write_locked(std::int32_t slot) {
  ++staged_writes_;
  const std::uint64_t gen = disk_at(slot).generation;
  worker_.submit([this, slot, gen] { run_write(slot, gen); });
}

void AsyncDiskSlotStore::enqueue_prefetch_locked(std::int32_t slot) {
  DiskSlot& state = disk_at(slot);
  state.prefetch_queued = true;
  ++staged_reads_;
  const std::uint64_t gen = state.generation;
  worker_.submit([this, slot, gen] { run_prefetch(slot, gen); });
}

// --------------------------------------------------------------------------
// IO-thread job bodies (must not throw: BackgroundWorker jobs are noexcept
// by contract, so every failure is captured as an exception_ptr and routed
// to the owning get()).
// --------------------------------------------------------------------------

void AsyncDiskSlotStore::run_write(std::int32_t slot, std::uint64_t gen) {
  Tensor payload;
  std::shared_ptr<std::vector<std::uint8_t>> blob;
  {
    MutexLock lock(mu_);
    DiskSlot& state = disk_at(slot);
    if (state.generation != gen) {
      // Superseded before we ran. The worker is FIFO, so no newer job for
      // this slot has written yet: any file present holds stale bytes from
      // an even older generation -- remove it and release our staging unit.
      --staged_writes_;
      cv_.notify_all();
      std::remove(path_for(slot).c_str());
      return;
    }
    if (state.staged_blob) {
      blob = state.staged_blob;  // shared handle; blob bytes are immutable
    } else {
      payload = state.staged;  // shared handle; payload bytes are immutable
    }
  }

  std::uint32_t crc = 0;
  std::exception_ptr error;
  try {
    if (options_.io_fault) options_.io_fault(slot, /*is_write=*/true);
    if (blob) {
      crc = spill::write_spill_blob("AsyncDiskSlotStore", path_for(slot),
                                    blob->data(), blob->size());
    } else {
      crc = spill::write_spill("AsyncDiskSlotStore", path_for(slot), payload);
    }
  } catch (...) {
    error = std::current_exception();
  }

  MutexLock lock(mu_);
  DiskSlot& state = disk_at(slot);
  --staged_writes_;
  if (state.generation != gen) {
    // Dropped or overwritten while we were writing; the bytes we just
    // produced (if any) belong to a dead generation.
    std::remove(path_for(slot).c_str());
  } else if (error) {
    state.state = State::Failed;
    state.error = error;
    detail::poison_if_sole_owner(state.staged);
    state.staged.reset();
    blob.reset();
    release_staged_blob(state.staged_blob);
  } else {
    state.state = State::OnDisk;
    state.crc = crc;
    state.disk_bytes = blob ? blob->size() : state.staged.bytes();
    disk_bytes_ += state.disk_bytes;
    detail::poison_if_sole_owner(state.staged);
    state.staged.reset();
    blob.reset();
    release_staged_blob(state.staged_blob);
    ++writes_;
    maybe_prefetch_locked();  // this slot may be an upcoming Restore
  }
  cv_.notify_all();
}

void AsyncDiskSlotStore::run_prefetch(std::int32_t slot, std::uint64_t gen) {
  Shape shape;
  std::uint32_t crc = 0;
  std::size_t encoded_size = 0;
  {
    MutexLock lock(mu_);
    DiskSlot& state = disk_at(slot);
    if (state.generation != gen) return;  // invalidation paid our unit back
    shape = state.shape;
    crc = state.crc;
    encoded_size = state.disk_bytes;
  }

  Tensor result;
  std::exception_ptr error;
  try {
    if (options_.io_fault) options_.io_fault(slot, /*is_write=*/false);
    if (options_.codec == SlotCodec::None) {
      result = spill::read_spill("AsyncDiskSlotStore", path_for(slot), shape,
                                 crc);
    } else {
      // Read AND decode here, on the IO thread, with Threading::Serial:
      // decompression overlaps the training thread's recompute instead of
      // borrowing the compute pool mid-sweep (ThreadPool::parallel_for has
      // no external-caller serialisation).
      std::vector<std::uint8_t> blob(encoded_size);
      spill::read_spill_blob("AsyncDiskSlotStore", path_for(slot),
                             encoded_size, crc, blob.data());
      result = codec::decode(options_.codec, "AsyncDiskSlotStore", shape,
                             blob.data(), blob.size(),
                             convert::Threading::Serial);
    }
  } catch (...) {
    error = std::current_exception();
  }

  MutexLock lock(mu_);
  DiskSlot& state = disk_at(slot);
  if (state.generation != gen) {
    cv_.notify_all();  // a get() may be parked on the old generation
    return;
  }
  state.prefetch_queued = false;
  if (error) {
    state.error = error;
    --staged_reads_;
  } else {
    state.prefetched = std::move(result);
    ++reads_;
  }
  cv_.notify_all();
}

}  // namespace edgetrain::core
