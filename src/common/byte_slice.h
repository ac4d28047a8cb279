// Shared, immutable log bytes.
//
// Log bytes are written once and then only read: a segment is append-only
// and never reused, and a pull reply is frozen once its handler fills it.
// So the places that used to copy them — the R backup replicas of a
// segment, each leg and retry of a BackupWrite, recovery data, a pull reply
// and its duplicate-suppression clone — hold a ByteSlice instead: a byte
// range of one refcounted ByteBuffer that keeps the buffer alive. Copying a
// slice costs one refcount increment.
//
// Sharing is safe across event lanes because a slice only ever covers bytes
// written before it was made and handed to a message: the writer appends
// past every slice it has handed out and never rewrites bytes under one.
// The bytes travel with the message, so the lane barrier that delivers the
// message also orders the writes before every read.
#ifndef ROCKSTEADY_SRC_COMMON_BYTE_SLICE_H_
#define ROCKSTEADY_SRC_COMMON_BYTE_SLICE_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/common/dcheck.h"
#include "src/common/intrusive_ptr.h"

namespace rocksteady {

// One heap block of bytes with an intrusive refcount.
class ByteBuffer final : public RefCounted {
 public:
  // `capacity` bytes, left uninitialised: pages nobody writes cost no RSS.
  static IntrusivePtr<ByteBuffer> Allocate(size_t capacity);

  ByteBuffer(const ByteBuffer&) = delete;
  ByteBuffer& operator=(const ByteBuffer&) = delete;
  ~ByteBuffer();

  uint8_t* data() const { return data_; }
  size_t capacity() const { return capacity_; }

 private:
  friend class ByteSliceBuilder;

  explicit ByteBuffer(size_t capacity);

  // Resizes the block, keeping its first min(old, new) bytes. Only for a
  // buffer no slice refers to yet: the bytes may move.
  void Reallocate(size_t capacity);

  uint8_t* data_ = nullptr;
  size_t capacity_ = 0;
};

// A byte range of one ByteBuffer; keeps the buffer alive.
class ByteSlice {
 public:
  ByteSlice() = default;
  ByteSlice(IntrusivePtr<ByteBuffer> buffer, size_t offset, size_t length)
      : buffer_(std::move(buffer)), data_(buffer_->data() + offset), length_(length) {
    ROCKSTEADY_DCHECK_LE(offset + length, buffer_->capacity());
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + length_; }
  const ByteBuffer* buffer() const { return buffer_.get(); }

  // Grows the range by the `length` bytes that follow it in the buffer.
  void Extend(size_t length) {
    ROCKSTEADY_DCHECK(end() + length <= buffer_->data() + buffer_->capacity());
    length_ += length;
  }

 private:
  IntrusivePtr<ByteBuffer> buffer_;
  const uint8_t* data_ = nullptr;
  size_t length_ = 0;
};

// Accumulates bytes in a private buffer, then freezes them into a slice.
// From Finish() on the bytes are immutable, so copies of the slice share
// them.
class ByteSliceBuilder {
 public:
  // `reserve`: the first append allocates at least this much, so a caller
  // with a byte budget grows its buffer once at most.
  explicit ByteSliceBuilder(size_t reserve = 0) : reserve_(reserve) {}

  void Append(const uint8_t* data, size_t length);
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The bytes appended so far, trimmed to their size (in place: no copy).
  // The builder starts over empty.
  ByteSlice Finish();

 private:
  IntrusivePtr<ByteBuffer> buffer_;
  size_t size_ = 0;
  size_t reserve_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_BYTE_SLICE_H_
