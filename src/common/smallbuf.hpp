/**
 * @file
 * Arrays that live inside their owner when they are small.
 *
 * SmallBuffer is a fixed-length scratch array on the stack: the
 * analyses' hot loops need short per-call arrays (one entry per
 * workload dim, per rectangle cut, ...) whose length is only known at
 * run time but is almost always tiny; this keeps them off the heap
 * without capping their length. SmallVector is the growable
 * counterpart for lists stored in long-lived objects.
 */

#ifndef TILEFLOW_COMMON_SMALLBUF_HPP
#define TILEFLOW_COMMON_SMALLBUF_HPP

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace tileflow {

/** `size` elements, all set to `fill`: inline when size <= N, else on
 *  the heap. Not copyable (data() may point into the object). */
template <typename T, size_t N>
class SmallBuffer
{
  public:
    SmallBuffer(size_t size, const T& fill)
    {
        if (size > N) {
            heap_.assign(size, fill);
            data_ = heap_.data();
        } else {
            for (size_t i = 0; i < size; ++i)
                inline_[i] = fill;
        }
    }

    SmallBuffer(const SmallBuffer&) = delete;
    SmallBuffer& operator=(const SmallBuffer&) = delete;

    T* data() { return data_; }
    T& operator[](size_t i) { return data_[i]; }

  private:
    T inline_[N];
    std::vector<T> heap_;
    T* data_ = inline_;
};

/**
 * A growable array whose first N elements live inside the object.
 * Lists that are almost always short (a node's loops and children, a
 * cached partial's per-child bytes) then cost no heap allocation of
 * their own; a longer list spills to the heap like a std::vector.
 * Element addresses change on growth and on a move of an inline list.
 */
template <typename T, size_t N>
class SmallVector
{
    static_assert(N > 0, "SmallVector needs inline room");

  public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    SmallVector() = default;

    SmallVector(const SmallVector& other) { appendCopies(other); }

    SmallVector(SmallVector&& other) noexcept { takeFrom(other); }

    SmallVector&
    operator=(const SmallVector& other)
    {
        if (this != &other) {
            clear();
            appendCopies(other);
        }
        return *this;
    }

    SmallVector&
    operator=(SmallVector&& other) noexcept
    {
        if (this != &other) {
            clear();
            releaseHeap();
            takeFrom(other);
        }
        return *this;
    }

    ~SmallVector()
    {
        clear();
        releaseHeap();
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T* data() { return data_; }
    const T* data() const { return data_; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }
    auto rbegin() const { return std::make_reverse_iterator(end()); }
    auto rend() const { return std::make_reverse_iterator(begin()); }

    T& operator[](size_t i) { return data_[i]; }
    const T& operator[](size_t i) const { return data_[i]; }
    T& front() { return data_[0]; }
    const T& front() const { return data_[0]; }
    T& back() { return data_[size_ - 1]; }
    const T& back() const { return data_[size_ - 1]; }

    void push_back(const T& value) { emplace_back(value); }
    void push_back(T&& value) { emplace_back(std::move(value)); }

    template <typename... Args>
    T&
    emplace_back(Args&&... args)
    {
        if (size_ == capacity_) {
            // Build the element before moving house: `args` may refer
            // into this list.
            T value(std::forward<Args>(args)...);
            reserve(2 * capacity_);
            return *new (data_ + size_++) T(std::move(value));
        }
        return *new (data_ + size_++) T(std::forward<Args>(args)...);
    }

    /** `count` copies of `value`, replacing the contents. */
    void
    assign(size_t count, const T& value)
    {
        clear();
        reserve(count);
        for (; size_ < count; ++size_)
            new (data_ + size_) T(value);
    }

    void
    clear()
    {
        std::destroy(data_, data_ + size_);
        size_ = 0;
    }

    void
    reserve(size_t wanted)
    {
        if (wanted <= capacity_)
            return;
        T* grown = std::allocator<T>().allocate(wanted);
        std::uninitialized_move(data_, data_ + size_, grown);
        std::destroy(data_, data_ + size_);
        releaseHeap();
        data_ = grown;
        capacity_ = wanted;
    }

  private:
    T* inlineData() { return reinterpret_cast<T*>(inline_); }

    void
    appendCopies(const SmallVector& other)
    {
        reserve(size_ + other.size_);
        for (const T& value : other)
            new (data_ + size_++) T(value);
    }
    bool onHeap() const { return capacity_ > N; }

    void
    releaseHeap()
    {
        if (onHeap()) {
            std::allocator<T>().deallocate(data_, capacity_);
            data_ = inlineData();
            capacity_ = N;
        }
    }

    /** Take `other`'s elements into this empty inline list; `other` is
     *  left empty and inline. */
    void
    takeFrom(SmallVector& other) noexcept
    {
        if (other.onHeap()) {
            data_ = other.data_;
            capacity_ = other.capacity_;
            size_ = other.size_;
            other.data_ = other.inlineData();
            other.capacity_ = N;
        } else {
            std::uninitialized_move(other.data_, other.data_ + other.size_,
                                    data_);
            size_ = other.size_;
            std::destroy(other.data_, other.data_ + other.size_);
        }
        other.size_ = 0;
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* data_ = inlineData();
    size_t size_ = 0;
    size_t capacity_ = N;
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_SMALLBUF_HPP
