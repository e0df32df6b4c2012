#include "smc/parties.h"

#include <algorithm>

namespace hprl::smc {

using crypto::BigInt;

namespace {
constexpr char kQp[] = "qp";

std::unique_ptr<crypto::SecureRandom> MakeRng(uint64_t test_seed) {
  return test_seed != 0 ? std::make_unique<crypto::SecureRandom>(test_seed)
                        : std::make_unique<crypto::SecureRandom>();
}

/// Receive-site ciphertext validation. A wire value that fails the range
/// precondition was damaged in transit (or forged); surface it as an IOError
/// so the retry layer treats it like any other transport fault instead of
/// aborting the run.
Status ValidateReceived(const crypto::PaillierPublicKey& pub,
                        const BigInt& c, const char* what) {
  Status st = pub.ValidateCiphertext(c);
  if (st.ok()) return st;
  return Status::IOError(std::string("received ") + what +
                         " failed validation: " + st.message());
}
}  // namespace

QueryingParty::QueryingParty(const ProtocolParams& params, uint64_t test_seed)
    : params_(params), rng_(MakeRng(test_seed)) {}

Status QueryingParty::PublishKey(MessageBus* bus, SmcCosts* costs) {
  auto kp = crypto::GeneratePaillierKeyPair(params_.key_bits, *rng_);
  if (!kp.ok()) return kp.status();
  return PublishKeyPair(*kp, bus, costs);
}

Status QueryingParty::PublishKeyPair(const crypto::PaillierKeyPair& kp,
                                     MessageBus* bus, SmcCosts* costs) {
  pub_ = kp.pub;
  priv_ = kp.priv;
  std::vector<uint8_t> payload;
  AppendBigInt(pub_.n(), &payload);
  bus->Send({kQp, "alice", "pubkey", payload});
  bus->Send({kQp, "bob", "pubkey", std::move(payload)});
  return Status::OK();
}

Result<BigInt> QueryingParty::DecryptSignedCt(const BigInt& c) const {
  if (!params_.crt_decrypt) return priv_.DecryptSignedReference(c);
  return priv_.DecryptSigned(c);
}

Result<BigInt> QueryingParty::DecryptCt(const BigInt& c) const {
  if (!params_.crt_decrypt) return priv_.DecryptReference(c);
  return priv_.Decrypt(c);
}

void QueryingParty::AttachMetrics(obs::MetricsRegistry* registry) {
  pub_.AttachMetrics(registry);
  priv_.AttachMetrics(registry);
}

Result<bool> QueryingParty::DecideAttr(MessageBus* bus,
                                       const BigInt& threshold,
                                       SmcCosts* costs) {
  auto msg = bus->Expect(kQp, "bob_ct");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "bob_ct"));
  auto plain = DecryptSignedCt(*c);
  if (!plain.ok()) return plain.status();
  costs->decryptions += 1;
  if (params_.reveal_distances) {
    return *plain <= threshold;
  }
  return plain->Sign() >= 0;
}

Status QueryingParty::SkipAttr(MessageBus* bus) {
  auto msg = bus->Expect(kQp, "bob_ct");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  return ValidateReceived(pub_, *c, "bob_ct");
}

Result<BigInt> QueryingParty::ReceivePlain(MessageBus* bus, SmcCosts* costs) {
  auto msg = bus->Expect(kQp, "bob_ct");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "bob_ct"));
  auto plain = DecryptSignedCt(*c);
  if (!plain.ok()) return plain.status();
  costs->decryptions += 1;
  return plain;
}

Result<std::vector<bool>> QueryingParty::DecideAttrsPacked(
    MessageBus* bus, const std::vector<BigInt>& thresholds,
    const crypto::PackingLayout& layout, SmcCosts* costs) {
  if (!params_.reveal_distances) {
    return Status::FailedPrecondition(
        "packed exchange requires reveal_distances");
  }
  auto msg = bus->Expect(kQp, "bob_pk");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c = ConsumeBigInt(msg->payload, &off);
  if (!c.ok()) return c.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "bob_pk"));
  // ONE decryption covers every slot. The packed plaintext is Σ d_i·W_i with
  // d_i = (x_i - y_i)² >= 0, so the unsigned decode is exact even though the
  // homomorphic fold passed through negative slot contributions mod n.
  auto plain = DecryptCt(*c);
  if (!plain.ok()) return plain.status();
  costs->decryptions += 1;
  std::vector<bool> within;
  within.reserve(thresholds.size());
  if (arena_ != nullptr) {
    std::vector<crypto::BigInt*> slots;
    slots.reserve(thresholds.size());
    for (size_t i = 0; i < thresholds.size(); ++i) {
      slots.push_back(&arena_->Next());
    }
    BigInt& rest = arena_->Next();
    Status st = crypto::UnpackSlotsInto(*plain, thresholds.size(), layout,
                                        &rest, slots);
    if (!st.ok()) {
      return Status::IOError(std::string("packed plaintext failed unpack: ") +
                             st.message());
    }
    for (size_t i = 0; i < thresholds.size(); ++i) {
      within.push_back(*slots[i] <= thresholds[i]);
    }
    return within;
  }
  auto slots = crypto::UnpackSlots(*plain, thresholds.size(), layout);
  if (!slots.ok()) {
    // A residue past the last slot means the plaintext was damaged (or a
    // slot overflowed); hand it to the retry layer as transit damage.
    return Status::IOError(std::string("packed plaintext failed unpack: ") +
                           slots.status().message());
  }
  for (size_t i = 0; i < thresholds.size(); ++i) {
    within.push_back((*slots)[i] <= thresholds[i]);
  }
  return within;
}

// Results travel on a dedicated ":res" sub-inbox so a pipelined next pair's
// "alice_ct" (addressed to the main inbox) can never interleave with a
// still-in-flight result announcement. With per-pair lockstep the main inbox
// was safe; the batched RPC path overlaps pairs, so the split is load-bearing.
Status QueryingParty::AnnounceResult(MessageBus* bus, bool match) {
  std::vector<uint8_t> result = {static_cast<uint8_t>(match ? 1 : 0)};
  bus->Send({kQp, "alice:res", "result", result});
  bus->Send({kQp, "bob:res", "result", std::move(result)});
  return Status::OK();
}

Status QueryingParty::AnnounceResults(MessageBus* bus,
                                      const std::vector<uint8_t>& labels) {
  std::vector<uint8_t> payload = labels;
  bus->Send({kQp, "alice:res", "results", payload});
  bus->Send({kQp, "bob:res", "results", std::move(payload)});
  return Status::OK();
}

DataHolder::DataHolder(std::string name, const ProtocolParams& params,
                       uint64_t test_seed)
    : name_(std::move(name)), params_(params), rng_(MakeRng(test_seed)) {}

Status DataHolder::ReceiveKey(MessageBus* bus) {
  auto msg = bus->Expect(name_, "pubkey");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto n = ConsumeBigInt(msg->payload, &off);
  if (!n.ok()) return n.status();
  if (n->Sign() <= 0) {
    return Status::IOError("received pubkey failed validation: n <= 0");
  }
  pub_ = crypto::PaillierPublicKey(std::move(n).value());
  have_key_ = true;
  return Status::OK();
}

void DataHolder::AttachMetrics(obs::MetricsRegistry* registry) {
  pub_.AttachMetrics(registry);
}

void DataHolder::AttachRandomizerPool(crypto::RandomizerPool* pool) {
  pub_.AttachRandomizerPool(pool);
}

Status DataHolder::SendAttr(MessageBus* bus, const std::string& peer,
                            const BigInt& x, int64_t cache_key,
                            SmcCosts* costs, AttrCiphertexts* reuse) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  auto send = [&](const BigInt& c_x2, const BigInt& c_m2x) {
    std::vector<uint8_t> payload;
    AppendBigInt(c_x2, &payload);
    AppendBigInt(c_m2x, &payload);
    bus->Send({name_, peer, "alice_ct", std::move(payload)});
    return Status::OK();
  };
  if (params_.cache_ciphertexts && cache_key >= 0) {
    auto it = send_cache_.find(cache_key);
    if (it != send_cache_.end()) {
      return send(it->second.first, it->second.second);
    }
  }
  // The guard: a reuse entry stands in only for the value it encrypts.
  if (reuse != nullptr && reuse->filled && reuse->x == x) {
    return send(reuse->c_x2, reuse->c_m2x);
  }
  auto c1 = pub_.EncryptSigned(x * x, *rng_);
  if (!c1.ok()) return c1.status();
  auto c2 = pub_.EncryptSigned(BigInt(-2) * x, *rng_);
  if (!c2.ok()) return c2.status();
  costs->encryptions += 2;
  if (params_.cache_ciphertexts && cache_key >= 0) {
    send_cache_.emplace(cache_key, std::make_pair(*c1, *c2));
  }
  if (reuse != nullptr) {
    reuse->filled = true;
    reuse->x = x;
    reuse->c_x2 = *c1;
    reuse->c_m2x = *c2;
  }
  return send(*c1, *c2);
}

Status DataHolder::FoldAndForward(MessageBus* bus, const BigInt& y,
                                  const BigInt& threshold, int64_t cache_key,
                                  SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  auto msg = bus->Expect(name_, "alice_ct");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  auto c_x2 = ConsumeBigInt(msg->payload, &off);
  if (!c_x2.ok()) return c_x2.status();
  auto c_m2x = ConsumeBigInt(msg->payload, &off);
  if (!c_m2x.ok()) return c_m2x.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c_x2, "alice_ct[0]"));
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c_m2x, "alice_ct[1]"));

  // Enc(d) = Enc(x²) +h (Enc(-2x) ×h y) +h Enc(y²), d = (x-y)².
  BigInt c_y2;
  auto cached = params_.cache_ciphertexts && cache_key >= 0
                    ? fold_cache_.find(cache_key)
                    : fold_cache_.end();
  if (cached != fold_cache_.end()) {
    c_y2 = cached->second;
  } else {
    auto fresh = pub_.EncryptSigned(y * y, *rng_);
    if (!fresh.ok()) return fresh.status();
    costs->encryptions += 1;
    if (params_.cache_ciphertexts && cache_key >= 0) {
      fold_cache_.emplace(cache_key, *fresh);
    }
    c_y2 = std::move(fresh).value();
  }
  BigInt c_d = pub_.Add(pub_.Add(*c_x2, pub_.ScalarMul(*c_m2x, y)), c_y2);
  costs->homomorphic_adds += 2;
  costs->scalar_muls += 1;

  BigInt out;
  if (params_.reveal_distances) {
    out = c_d;
  } else {
    // Blind the comparison: Enc(rho * (T - d) + sigma), rho >= 1 random,
    // sigma in [0, rho). The plaintext's sign is the outcome:
    // d <= T <=> plaintext >= 0.
    BigInt rho = rng_->NextBits(params_.blind_bits) + BigInt(1);
    BigInt sigma = rng_->NextBelow(rho);
    auto c_blind = pub_.EncryptSigned(rho * threshold + sigma, *rng_);
    if (!c_blind.ok()) return c_blind.status();
    out = pub_.Add(*c_blind, pub_.ScalarMul(c_d, -rho));
    costs->encryptions += 1;
    costs->homomorphic_adds += 1;
    costs->scalar_muls += 1;
  }
  std::vector<uint8_t> payload;
  AppendBigInt(out, &payload);
  bus->Send({name_, kQp, "bob_ct", std::move(payload)});
  return Status::OK();
}

Result<BigInt> DataHolder::EncryptCrossTerm(
    const BigInt& x, size_t slot, const crypto::PackingLayout& layout) {
  // Slot i's cross-term ciphertext arrives pre-shifted, Enc(-2x_i · W_i), so
  // Bob's exponent is y_i alone rather than y_i · W_i. The value is encoded
  // mod n; only the folded sum, whose every slot holds (x_i - y_i)² < 2^w_i,
  // is ever decrypted.
  return pub_.EncryptSigned(BigInt(-2) * x * layout.SlotWeight(slot), *rng_);
}

Status DataHolder::EncryptCrossTerms(const crypto::PackingLayout& layout,
                                     PackedCrossTerms* terms,
                                     SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  terms->cts.clear();
  terms->cts.reserve(terms->xs.size());
  for (size_t i = 0; i < terms->xs.size(); ++i) {
    auto ct = EncryptCrossTerm(terms->xs[i], terms->first_slot + i, layout);
    if (!ct.ok()) return ct.status();
    costs->encryptions += 1;
    terms->cts.push_back(std::move(ct).value());
  }
  return Status::OK();
}

Status DataHolder::SendAttrsPacked(
    MessageBus* bus, const std::string& peer, const std::vector<BigInt>& xs,
    const crypto::PackingLayout& layout, SmcCosts* costs,
    const std::vector<const PackedCrossTerms*>& reuse) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  // The guard: an entry stands in for its slots only when it was encrypted
  // for exactly these values at exactly these slots.
  std::vector<const BigInt*> ready(xs.size(), nullptr);
  for (const PackedCrossTerms* terms : reuse) {
    if (terms == nullptr || terms->cts.size() != terms->xs.size() ||
        terms->first_slot + terms->xs.size() > xs.size() ||
        !std::equal(terms->xs.begin(), terms->xs.end(),
                    xs.begin() + static_cast<std::ptrdiff_t>(
                                     terms->first_slot))) {
      continue;
    }
    for (size_t i = 0; i < terms->cts.size(); ++i) {
      ready[terms->first_slot + i] = &terms->cts[i];
    }
  }
  if (arena_ != nullptr) {
    // Arena path: every BigInt below lives in preallocated arena storage;
    // math, randomness order and wire bytes are identical to the value path.
    std::vector<const BigInt*> x2;
    x2.reserve(xs.size());
    for (const BigInt& x : xs) {
      BigInt& sq = arena_->Next();
      mpz_mul(sq.raw(), x.raw(), x.raw());
      x2.push_back(&sq);
    }
    BigInt& scratch = arena_->Next();
    BigInt& packed = arena_->Next();
    HPRL_RETURN_IF_ERROR(crypto::PackSlotsInto(x2, layout, &scratch, &packed));
    BigInt& c_px2 = arena_->Next();
    HPRL_RETURN_IF_ERROR(pub_.EncryptInto(packed, *rng_, &scratch, &c_px2));
    costs->encryptions += 1;
    std::vector<uint8_t> payload;
    AppendBigInt(c_px2, &payload);
    BigInt& m2x = arena_->Next();  // -2x_i · W_i = -2x_i << offset_i
    BigInt& ct = arena_->Next();
    for (size_t i = 0; i < xs.size(); ++i) {
      if (ready[i] != nullptr) {
        AppendBigInt(*ready[i], &payload);
        continue;
      }
      mpz_mul_si(m2x.raw(), xs[i].raw(), -2);
      mpz_mul_2exp(m2x.raw(), m2x.raw(),
                   static_cast<mp_bitcnt_t>(layout.SlotOffset(i)));
      HPRL_RETURN_IF_ERROR(
          pub_.EncryptSignedInto(m2x, *rng_, &scratch, &ct));
      costs->encryptions += 1;
      AppendBigInt(ct, &payload);
    }
    bus->Send({name_, peer, "alice_pk", std::move(payload)});
    return Status::OK();
  }
  std::vector<BigInt> x2;
  x2.reserve(xs.size());
  for (const BigInt& x : xs) x2.push_back(x * x);
  auto packed = crypto::PackSlots(x2, layout);
  if (!packed.ok()) return packed.status();
  auto c_px2 = pub_.Encrypt(*packed, *rng_);
  if (!c_px2.ok()) return c_px2.status();
  costs->encryptions += 1;
  std::vector<uint8_t> payload;
  AppendBigInt(*c_px2, &payload);
  for (size_t i = 0; i < xs.size(); ++i) {
    if (ready[i] != nullptr) {
      AppendBigInt(*ready[i], &payload);
      continue;
    }
    auto c_m2x = EncryptCrossTerm(xs[i], i, layout);
    if (!c_m2x.ok()) return c_m2x.status();
    costs->encryptions += 1;
    AppendBigInt(*c_m2x, &payload);
  }
  bus->Send({name_, peer, "alice_pk", std::move(payload)});
  return Status::OK();
}

Status DataHolder::FoldAndForwardPacked(MessageBus* bus,
                                        const std::vector<BigInt>& ys,
                                        const crypto::PackingLayout& layout,
                                        SmcCosts* costs) {
  if (!have_key_) return Status::FailedPrecondition("no public key yet");
  auto msg = bus->Expect(name_, "alice_pk");
  if (!msg.ok()) return msg.status();
  size_t off = 0;
  if (arena_ != nullptr) {
    // Arena path: ciphertexts deserialize straight into arena slots
    // (ConsumeBigIntInto) and the fold runs through the in-place
    // homomorphic ops — the computed acc is bit-identical to the value path.
    BigInt& c_px2 = arena_->Next();
    HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &c_px2));
    HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, c_px2, "alice_pk[0]"));
    std::vector<const BigInt*> c_m2x;
    c_m2x.reserve(ys.size());
    for (size_t i = 0; i < ys.size(); ++i) {
      BigInt& c = arena_->Next();
      HPRL_RETURN_IF_ERROR(ConsumeBigIntInto(msg->payload, &off, &c));
      HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, c, "alice_pk[i]"));
      c_m2x.push_back(&c);
    }
    std::vector<const BigInt*> y2;
    y2.reserve(ys.size());
    for (const BigInt& y : ys) {
      BigInt& sq = arena_->Next();
      mpz_mul(sq.raw(), y.raw(), y.raw());
      y2.push_back(&sq);
    }
    BigInt& scratch = arena_->Next();
    BigInt& packed_y2 = arena_->Next();
    HPRL_RETURN_IF_ERROR(
        crypto::PackSlotsInto(y2, layout, &scratch, &packed_y2));
    BigInt& c_py2 = arena_->Next();
    HPRL_RETURN_IF_ERROR(pub_.EncryptInto(packed_y2, *rng_, &scratch, &c_py2));
    costs->encryptions += 1;
    BigInt& acc = arena_->Next();
    mpz_set(acc.raw(), c_px2.raw());
    pub_.AddInto(&acc, c_py2);
    costs->homomorphic_adds += 1;
    BigInt& term = arena_->Next();
    for (size_t i = 0; i < ys.size(); ++i) {
      pub_.ScalarMulInto(*c_m2x[i], ys[i], &scratch, &term);
      pub_.AddInto(&acc, term);
    }
    costs->homomorphic_adds += static_cast<int64_t>(ys.size());
    costs->scalar_muls += static_cast<int64_t>(ys.size());
    std::vector<uint8_t> payload;
    AppendBigInt(acc, &payload);
    bus->Send({name_, kQp, "bob_pk", std::move(payload)});
    return Status::OK();
  }
  auto c_px2 = ConsumeBigInt(msg->payload, &off);
  if (!c_px2.ok()) return c_px2.status();
  HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c_px2, "alice_pk[0]"));
  std::vector<BigInt> c_m2x;
  c_m2x.reserve(ys.size());
  for (size_t i = 0; i < ys.size(); ++i) {
    auto c = ConsumeBigInt(msg->payload, &off);
    if (!c.ok()) return c.status();
    HPRL_RETURN_IF_ERROR(ValidateReceived(pub_, *c, "alice_pk[i]"));
    c_m2x.push_back(std::move(c).value());
  }
  std::vector<BigInt> y2;
  y2.reserve(ys.size());
  for (const BigInt& y : ys) y2.push_back(y * y);
  auto packed_y2 = crypto::PackSlots(y2, layout);
  if (!packed_y2.ok()) return packed_y2.status();
  auto c_py2 = pub_.Encrypt(*packed_y2, *rng_);
  if (!c_py2.ok()) return c_py2.status();
  costs->encryptions += 1;
  // Σ_i Enc(d_i · W_i): the x² terms arrive pre-packed and each cross term
  // Enc(-2x_i · W_i) arrives pre-shifted into slot i, so scaling it by y_i
  // lands -2x_i·y_i in slot i with an exponent only as wide as y_i.
  BigInt acc = pub_.Add(*c_px2, *c_py2);
  costs->homomorphic_adds += 1;
  for (size_t i = 0; i < ys.size(); ++i) {
    acc = pub_.Add(acc, pub_.ScalarMul(c_m2x[i], ys[i]));
  }
  costs->homomorphic_adds += static_cast<int64_t>(ys.size());
  costs->scalar_muls += static_cast<int64_t>(ys.size());
  std::vector<uint8_t> payload;
  AppendBigInt(acc, &payload);
  bus->Send({name_, kQp, "bob_pk", std::move(payload)});
  return Status::OK();
}

Result<bool> DataHolder::ReceiveResult(MessageBus* bus) {
  auto msg = bus->Expect(name_ + ":res", "result");
  if (!msg.ok()) return msg.status();
  if (msg->payload.size() != 1) {
    return Status::Internal("malformed result message");
  }
  return msg->payload[0] != 0;
}

Result<std::vector<uint8_t>> DataHolder::ReceiveResults(MessageBus* bus,
                                                        size_t count) {
  auto msg = bus->Expect(name_ + ":res", "results");
  if (!msg.ok()) return msg.status();
  if (msg->payload.size() != count) {
    return Status::Internal("malformed results message");
  }
  return msg->payload;
}

}  // namespace hprl::smc
