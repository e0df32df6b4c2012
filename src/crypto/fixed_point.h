#ifndef HPRL_CRYPTO_FIXED_POINT_H_
#define HPRL_CRYPTO_FIXED_POINT_H_

#include <cmath>
#include <cstdint>

#include "crypto/bigint.h"

namespace hprl::crypto {

/// Fixed-point codec for carrying real-valued attributes through the
/// (integer) Paillier plaintext space: Encode(v) = round(v * scale).
/// Squared distances computed on encodings are scale² times the real squared
/// distance, so thresholds must be scaled by scale² on the comparing side.
class FixedPointCodec {
 public:
  explicit FixedPointCodec(int64_t scale = 1000) : scale_(scale) {}

  int64_t scale() const { return scale_; }

  BigInt Encode(double v) const { return BigInt(EncodeInt64(v)); }

  int64_t EncodeInt64(double v) const {
    return static_cast<int64_t>(std::llround(v * scale_));
  }

  double Decode(const BigInt& x) const {
    auto v = x.ToInt64();
    return v.ok() ? static_cast<double>(*v) / static_cast<double>(scale_)
                  : 0.0;
  }

  /// Decodes a value that carries scale² (e.g. a squared distance).
  double DecodeSquared(const BigInt& x) const {
    auto v = x.ToInt64();
    return v.ok() ? static_cast<double>(*v) /
                        (static_cast<double>(scale_) * scale_)
                  : 0.0;
  }

 private:
  int64_t scale_;
};

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_FIXED_POINT_H_
