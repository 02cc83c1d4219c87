// Fixed-width encoded column — the unit of storage the whole system
// operates on (the paper's "w-bit column" of order-preserving codes).
//
// Codes are stored in the smallest power-of-two-sized integer type that
// holds the width (u16/u32/u64), so sort kernels and massaging operate on
// typed arrays with no per-element unpacking.
#ifndef MCSORT_STORAGE_COLUMN_H_
#define MCSORT_STORAGE_COLUMN_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"
#include "mcsort/storage/types.h"

namespace mcsort {

class EncodedColumn {
 public:
  EncodedColumn() = default;
  // Creates a column of `n` w-bit codes, zero-initialized.
  EncodedColumn(int width, size_t n) { Reset(width, n); }

  EncodedColumn(EncodedColumn&&) = default;
  EncodedColumn& operator=(EncodedColumn&&) = default;

  void Reset(int width, size_t n) {
    ResetTyped(width, PhysicalTypeForWidth(width), n);
  }

  // Like Reset but with an explicitly wider physical type — used for
  // massaged round columns that are sorted with a bank wider than their
  // code width (e.g. a 10-bit round under a 32-bit bank). Pass
  // `zero_fill = false` when every element will be overwritten anyway
  // (e.g. gather targets), to avoid a wasted memory pass.
  void ResetTyped(int width, PhysicalType type, size_t n,
                  bool zero_fill = true) {
    MCSORT_CHECK(width >= 1 && width <= 64);
    MCSORT_CHECK(width <= 8 * BytesOfPhysicalType(type));
    width_ = width;
    type_ = type;
    size_ = n;
    switch (type_) {
      case PhysicalType::kU16:
        data16_.Reset(n);
        if (zero_fill) data16_.Fill(0);
        data32_.Reset(0);
        data64_.Reset(0);
        break;
      case PhysicalType::kU32:
        data32_.Reset(n);
        if (zero_fill) data32_.Fill(0);
        data16_.Reset(0);
        data64_.Reset(0);
        break;
      case PhysicalType::kU64:
        data64_.Reset(n);
        if (zero_fill) data64_.Fill(0);
        data16_.Reset(0);
        data32_.Reset(0);
        break;
    }
  }

  // Points the column at an externally owned code array (an mmap'd snapshot
  // section) instead of copying it — the zero-copy load path. `data` must be
  // aligned for the physical type, hold `n` codes, and outlive the column
  // (the owning Table pins the mapping). The bytes are read-only: callers
  // must not write through Data16/32/64 on a view column. (Merged images
  // view AppendBlocks, which their builder fills before publishing the
  // image; delta/merge_scan.h.)
  void ResetView(int width, PhysicalType type, size_t n, const void* data) {
    MCSORT_CHECK(width >= 1 && width <= 64);
    MCSORT_CHECK(width <= 8 * BytesOfPhysicalType(type));
    width_ = width;
    type_ = type;
    size_ = n;
    data16_.Reset(0);
    data32_.Reset(0);
    data64_.Reset(0);
    switch (type_) {
      case PhysicalType::kU16:
        data16_.ResetView(
            static_cast<uint16_t*>(const_cast<void*>(data)), n);
        break;
      case PhysicalType::kU32:
        data32_.ResetView(
            static_cast<uint32_t*>(const_cast<void*>(data)), n);
        break;
      case PhysicalType::kU64:
        data64_.ResetView(
            static_cast<uint64_t*>(const_cast<void*>(data)), n);
        break;
    }
  }
  bool is_view() const {
    return data16_.is_view() || data32_.is_view() || data64_.is_view();
  }

  int width() const { return width_; }
  size_t size() const { return size_; }
  PhysicalType type() const { return type_; }
  // The SIMD bank used when sorting this column directly (the paper's b_i).
  int bank() const { return MinBankForWidth(width_); }

  Code Get(size_t i) const {
    MCSORT_DCHECK(i < size_);
    switch (type_) {
      case PhysicalType::kU16: return data16_[i];
      case PhysicalType::kU32: return data32_[i];
      case PhysicalType::kU64: return data64_[i];
    }
    return 0;
  }

  void Set(size_t i, Code value) {
    MCSORT_DCHECK(i < size_);
    MCSORT_DCHECK((value & ~LowBitsMask(width_)) == 0);
    switch (type_) {
      case PhysicalType::kU16:
        data16_[i] = static_cast<uint16_t>(value);
        break;
      case PhysicalType::kU32:
        data32_[i] = static_cast<uint32_t>(value);
        break;
      case PhysicalType::kU64:
        data64_[i] = value;
        break;
    }
  }

  // Typed raw access; the physical type must match.
  uint16_t* Data16() {
    MCSORT_DCHECK(type_ == PhysicalType::kU16);
    return data16_.data();
  }
  const uint16_t* Data16() const {
    MCSORT_DCHECK(type_ == PhysicalType::kU16);
    return data16_.data();
  }
  uint32_t* Data32() {
    MCSORT_DCHECK(type_ == PhysicalType::kU32);
    return data32_.data();
  }
  const uint32_t* Data32() const {
    MCSORT_DCHECK(type_ == PhysicalType::kU32);
    return data32_.data();
  }
  uint64_t* Data64() {
    MCSORT_DCHECK(type_ == PhysicalType::kU64);
    return data64_.data();
  }
  const uint64_t* Data64() const {
    MCSORT_DCHECK(type_ == PhysicalType::kU64);
    return data64_.data();
  }

  void* raw_data() {
    switch (type_) {
      case PhysicalType::kU16: return data16_.data();
      case PhysicalType::kU32: return data32_.data();
      case PhysicalType::kU64: return data64_.data();
    }
    return nullptr;
  }
  const void* raw_data() const {
    return const_cast<EncodedColumn*>(this)->raw_data();
  }

  // Memory footprint (the cost model's N * size(w)).
  size_t byte_size() const { return size_ * BytesOfPhysicalType(type_); }

 private:
  int width_ = 0;
  PhysicalType type_ = PhysicalType::kU16;
  size_t size_ = 0;
  AlignedBuffer<uint16_t> data16_;
  AlignedBuffer<uint32_t> data32_;
  AlignedBuffer<uint64_t> data64_;
};

// Calls `fn(codes)` with the column's typed code array (`uint16_t*`,
// `uint32_t*` or `uint64_t*`, const when the column is) and returns its
// result. Bulk passes (merge-at-scan, stats, layout builds, DML
// predicates) instantiate their loop once per physical type here instead
// of paying Get's per-element type switch.
template <typename Column, typename Fn>
  requires std::same_as<std::remove_const_t<Column>, EncodedColumn>
decltype(auto) VisitCodes(Column& column, Fn&& fn) {
  switch (column.type()) {
    case PhysicalType::kU16: return fn(column.Data16());
    case PhysicalType::kU32: return fn(column.Data32());
    case PhysicalType::kU64: break;
  }
  return fn(column.Data64());
}

}  // namespace mcsort

#endif  // MCSORT_STORAGE_COLUMN_H_
