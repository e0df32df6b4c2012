#ifndef HPRL_CRYPTO_PACKING_H_
#define HPRL_CRYPTO_PACKING_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "crypto/bigint.h"

namespace hprl::crypto {

/// Layout of a packed Paillier plaintext: `num_slots` disjoint bit-slots,
/// slot i spanning bits [offsets[i], offsets[i+1]), packed as
///   m = Σ v_i · 2^{offsets[i]}.
///
/// Additively homomorphic slot-wise: as long as every slot of the SUM stays
/// inside [0, 2^width_i), homomorphic addition adds the slots independently
/// (no carry crosses a slot boundary) and one Encrypt/Add/Decrypt does the
/// work of num_slots scalar ones. Callers size each slot for the largest
/// value it can hold; the SMC layer derives the widths from public
/// per-attribute bounds (smc::PackedGroupPairs).
struct PackingLayout {
  /// Widest slot; every slot's width in a uniform layout (Plan).
  int slot_bits = 0;
  int num_slots = 0;
  /// num_slots + 1 bit positions: slot i spans [offsets[i], offsets[i+1]).
  std::vector<int> offsets;

  /// Plans a uniform layout for a modulus of `modulus_bits` bits: capacity
  /// is (modulus_bits - 2) / slot_bits slots, so the packed value is < n/2
  /// and survives the signed-embedding round trip. Fails when no full slot
  /// fits or slot_bits is below 8 (a squared distance of even 16 would not
  /// fit).
  static Result<PackingLayout> Plan(int modulus_bits, int slot_bits);

  /// Plans `pattern` (slot widths, each >= 1) repeated as many times as
  /// fit in modulus_bits - 2 bits, at most `max_repeats` times. Fails when
  /// not even one repetition fits.
  static Result<PackingLayout> PlanRepeated(int modulus_bits,
                                            const std::vector<int>& pattern,
                                            int max_repeats);

  int SlotOffset(size_t slot) const { return offsets[slot]; }
  int SlotWidth(size_t slot) const {
    return offsets[slot + 1] - offsets[slot];
  }

  /// 2^{offsets[slot]} — the weight of slot `slot` in the packed value.
  BigInt SlotWeight(size_t slot) const;

  /// True when v can occupy slot `slot`: 0 <= v < 2^SlotWidth(slot).
  bool SlotHolds(size_t slot, const BigInt& v) const;
};

/// Packs slot values into one plaintext, value i into slot i. Fails
/// (InvalidArgument) when there are more values than slots or any value is
/// negative or does not fit its slot — the slot-overflow rejection the
/// protocol relies on to never silently corrupt a neighbouring slot.
Result<BigInt> PackSlots(const std::vector<BigInt>& values,
                         const PackingLayout& layout);

/// Recovers the first `count` slot values from a packed plaintext. Exact
/// inverse of PackSlots for carry-safe inputs. Fails when packed is negative,
/// count exceeds the layout, or a nonzero residue remains past `count` slots
/// (evidence of slot overflow or a corrupted plaintext).
Result<std::vector<BigInt>> UnpackSlots(const BigInt& packed, size_t count,
                                        const PackingLayout& layout);

/// Arena variant of PackSlots: same validation, same result, but the packed
/// value lands in *out and the only transient lives in *scratch — no BigInt
/// is constructed. *out and *scratch must be distinct from each other and
/// from every input.
Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out);

/// Arena variant of UnpackSlots: slot i is written through (*slots)[i]
/// (which must hold `count` distinct destinations) and *rest carries the
/// running quotient. Same validation and failure modes as UnpackSlots.
Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots);

}  // namespace hprl::crypto

#endif  // HPRL_CRYPTO_PACKING_H_
