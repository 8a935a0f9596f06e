// Storage backing for the multi-tenant manager (service/tenant_manager.h):
// a pooled fixed-slot allocator for resident sketch instances and a
// compacting byte region for spilled (serialized) ones. Neither class is
// thread-safe — the owning manager serializes all access.
#ifndef SWSKETCH_SERVICE_TENANT_ARENA_H_
#define SWSKETCH_SERVICE_TENANT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace swsketch {

/// Fixed-slot-size pooled allocator. AllocateSlot() is one free-list pop
/// or one bump-pointer advance (plus one chunk malloc every
/// slots-per-chunk allocations); ReleaseSlot() pushes the slot back onto
/// an intrusive free list. Chunks are never returned to the OS while the
/// arena lives, so reserved_bytes() plateaus at the high-water mark of
/// concurrently live slots — exactly the behaviour a budget-bound tenant
/// manager wants (evicted slots are recycled, not fragmented).
class TenantArena {
 public:
  /// Slots hold `slot_bytes` bytes at `slot_align` alignment, carved from
  /// chunks of `slots_per_chunk` slots.
  TenantArena(size_t slot_bytes, size_t slot_align,
              size_t slots_per_chunk = 1024);
  ~TenantArena();

  TenantArena(const TenantArena&) = delete;
  TenantArena& operator=(const TenantArena&) = delete;

  void* AllocateSlot();

  /// Returns `slot` (previously obtained from AllocateSlot) to the free
  /// list. The memory stays reserved for reuse.
  void ReleaseSlot(void* slot);

  /// Slot stride after alignment rounding.
  size_t slot_bytes() const { return slot_bytes_; }
  size_t reserved_bytes() const {
    return chunks_.size() * slots_per_chunk_ * slot_bytes_;
  }

 private:
  size_t slot_bytes_;  // Rounded up to a multiple of slot_align_.
  size_t slot_align_;
  size_t slots_per_chunk_;
  std::vector<std::byte*> chunks_;
  size_t bump_ = 0;            // Next virgin slot index in chunks_.back().
  void* free_list_ = nullptr;  // Intrusive: a free slot stores the next.
  size_t live_slots_ = 0;
};

/// Byte store for serialized (spilled) tenants. Payloads append at the
/// end; records are addressed by stable ids (indices into a record table),
/// so compaction — which slides live payloads down over freed ones — never
/// invalidates a handle. Compaction triggers inside Free() once dead bytes
/// exceed both the live bytes and a fixed floor, keeping the buffer within
/// about 2x of the live payload.
class SpillRegion {
 public:
  static constexpr uint32_t kInvalidRecord = 0xFFFFFFFFu;

  /// Stores a copy of `bytes`; returns the record id.
  uint32_t Append(std::span<const uint8_t> bytes);

  /// Payload of a live record. Valid until the next Append/Free (either
  /// may move the buffer).
  std::span<const uint8_t> View(uint32_t record) const;

  /// Marks the record dead and recycles its id; may compact.
  void Free(uint32_t record);

  size_t live_bytes() const { return live_bytes_; }
  size_t compactions() const { return compactions_; }

 private:
  void Compact();

  struct Record {
    size_t offset = 0;
    size_t size = 0;
    bool live = false;
  };

  std::vector<uint8_t> buffer_;
  std::vector<Record> records_;
  std::vector<uint32_t> free_records_;
  size_t live_bytes_ = 0;
  size_t dead_bytes_ = 0;
  size_t live_count_ = 0;
  size_t compactions_ = 0;
};

}  // namespace swsketch

#endif  // SWSKETCH_SERVICE_TENANT_ARENA_H_
