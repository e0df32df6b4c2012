#include "crypto/packing.h"

#include <algorithm>

namespace hprl::crypto {

namespace {

Status CheckPlanned(const PackingLayout& layout, size_t count,
                    const char* what) {
  if (layout.num_slots <= 0 ||
      layout.offsets.size() != static_cast<size_t>(layout.num_slots) + 1) {
    return Status::FailedPrecondition("packing layout not planned");
  }
  if (count > static_cast<size_t>(layout.num_slots)) {
    return Status::InvalidArgument(what);
  }
  return Status::OK();
}

}  // namespace

Result<PackingLayout> PackingLayout::Plan(int modulus_bits, int slot_bits) {
  if (slot_bits < 8) {
    return Status::InvalidArgument("packing slot width must be >= 8 bits");
  }
  return PlanRepeated(modulus_bits, {slot_bits}, modulus_bits);
}

Result<PackingLayout> PackingLayout::PlanRepeated(
    int modulus_bits, const std::vector<int>& pattern, int max_repeats) {
  int pattern_bits = 0;
  for (int w : pattern) {
    if (w < 1) return Status::InvalidArgument("packing slot width must be >= 1");
    pattern_bits += w;
  }
  if (pattern.empty()) {
    return Status::InvalidArgument("empty packing slot pattern");
  }
  // Keep the packed value strictly below 2^{modulus_bits - 2} <= n/2 so it
  // also survives the signed decode used elsewhere in the protocol.
  const int usable_bits = modulus_bits - 2;
  const int repeats = std::min(max_repeats, usable_bits / pattern_bits);
  if (repeats < 1) {
    return Status::InvalidArgument("modulus too small for one packed slot");
  }
  PackingLayout layout;
  layout.offsets.reserve(repeats * pattern.size() + 1);
  layout.offsets.push_back(0);
  for (int r = 0; r < repeats; ++r) {
    for (int w : pattern) {
      layout.offsets.push_back(layout.offsets.back() + w);
      layout.slot_bits = std::max(layout.slot_bits, w);
    }
  }
  layout.num_slots = static_cast<int>(layout.offsets.size()) - 1;
  return layout;
}

BigInt PackingLayout::SlotWeight(size_t slot) const {
  BigInt w;
  mpz_set_ui(w.raw(), 1);
  mpz_mul_2exp(w.raw(), w.raw(), static_cast<mp_bitcnt_t>(offsets[slot]));
  return w;
}

bool PackingLayout::SlotHolds(size_t slot, const BigInt& v) const {
  // For v >= 0, BitLength(v) <= width is exactly v < 2^width (and
  // mpz_sizeinbase(0, 2) == 1 <= width, as every width is >= 1).
  return slot < static_cast<size_t>(num_slots) && v.Sign() >= 0 &&
         static_cast<int>(v.BitLength()) <= SlotWidth(slot);
}

Result<BigInt> PackSlots(const std::vector<BigInt>& values,
                         const PackingLayout& layout) {
  std::vector<const BigInt*> ptrs;
  ptrs.reserve(values.size());
  for (const BigInt& v : values) ptrs.push_back(&v);
  BigInt scratch, packed;
  HPRL_RETURN_IF_ERROR(PackSlotsInto(ptrs, layout, &scratch, &packed));
  return packed;
}

Result<std::vector<BigInt>> UnpackSlots(const BigInt& packed, size_t count,
                                        const PackingLayout& layout) {
  std::vector<BigInt> values(count);
  std::vector<BigInt*> ptrs;
  ptrs.reserve(count);
  for (BigInt& v : values) ptrs.push_back(&v);
  BigInt rest;
  HPRL_RETURN_IF_ERROR(UnpackSlotsInto(packed, count, layout, &rest, ptrs));
  return values;
}

Status PackSlotsInto(const std::vector<const BigInt*>& values,
                     const PackingLayout& layout, BigInt* scratch,
                     BigInt* out) {
  HPRL_RETURN_IF_ERROR(
      CheckPlanned(layout, values.size(), "more values than packing slots"));
  mpz_set_ui(out->raw(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const BigInt& v = *values[i];
    if (!layout.SlotHolds(i, v)) {
      return Status::InvalidArgument("value does not fit its packing slot");
    }
    mpz_mul_2exp(scratch->raw(), v.raw(),
                 static_cast<mp_bitcnt_t>(layout.SlotOffset(i)));
    mpz_add(out->raw(), out->raw(), scratch->raw());
  }
  return Status::OK();
}

Status UnpackSlotsInto(const BigInt& packed, size_t count,
                       const PackingLayout& layout, BigInt* rest,
                       const std::vector<BigInt*>& slots) {
  HPRL_RETURN_IF_ERROR(CheckPlanned(
      layout, count, "more slots requested than the layout has"));
  if (packed.Sign() < 0) {
    return Status::InvalidArgument("packed value must be non-negative");
  }
  if (slots.size() < count) {
    return Status::InvalidArgument("fewer slot destinations than slots");
  }
  mpz_set(rest->raw(), packed.raw());
  for (size_t i = 0; i < count; ++i) {
    const auto width = static_cast<mp_bitcnt_t>(layout.SlotWidth(i));
    mpz_fdiv_r_2exp(slots[i]->raw(), rest->raw(), width);
    mpz_fdiv_q_2exp(rest->raw(), rest->raw(), width);
  }
  if (!rest->IsZero()) {
    return Status::InvalidArgument(
        "packed plaintext has residue past the requested slots");
  }
  return Status::OK();
}

}  // namespace hprl::crypto
