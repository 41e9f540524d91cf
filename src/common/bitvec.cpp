#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace nbx {

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[s.size() - 1 - i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVec::from_string: expected only 0/1");
    }
    v.set(i, c == '1');
  }
  return v;
}

void BitVec::xor_with(const BitVec& other) {
  assert(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] ^= other.words_[w];
  }
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

void BitVec::clear_all() {
  for (auto& w : words_) {
    w = 0;
  }
}

bool BitVec::any() const {
  for (const std::uint64_t w : words_) {
    if (w != 0) {
      return true;
    }
  }
  return false;
}

void BitVec::splice(std::size_t offset, const BitVec& bits) {
  assert(offset + bits.size() <= size_);
  for (std::size_t at = 0; at < bits.size(); at += 64) {
    const std::size_t n = std::min<std::size_t>(64, bits.size() - at);
    deposit(offset + at, n, bits.extract(at, n));
  }
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) {
      s[size_ - 1 - i] = '1';
    }
  }
  return s;
}

}  // namespace nbx
