#ifndef HPRL_SMC_PARTIES_H_
#define HPRL_SMC_PARTIES_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "crypto/arena.h"
#include "crypto/fixed_point.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "smc/channel.h"
#include "smc/costs.h"

namespace hprl::smc {

/// Protocol-level parameters shared by the parties (mirrors the fields of
/// SmcConfig that cross trust boundaries: everyone knows the key size, the
/// fixed-point scale, the blinding width and the protocol variant).
struct ProtocolParams {
  int key_bits = 1024;
  int64_t fp_scale = 1000;
  int blind_bits = 40;
  bool reveal_distances = true;
  bool cache_ciphertexts = false;
  /// When false the querying party decrypts through the reference lambda/mu
  /// path even if the key carries CRT data — the honest "before" baseline
  /// for benchmarking the CRT fast path.
  bool crt_decrypt = true;
};

/// Alice's two ciphertexts for one scalar attribute value, Enc(x²) and
/// Enc(-2x), kept so that later pairs of the same batch can resend them.
/// The value travels with the ciphertexts so that a reuse can be checked
/// against the value being sent (DataHolder::SendAttr).
struct AttrCiphertexts {
  bool filled = false;
  crypto::BigInt x;
  crypto::BigInt c_x2;
  crypto::BigInt c_m2x;
};

/// Alice's pre-encrypted cross terms for one pair of a packed exchange:
/// cts[i] = Enc(-2·xs[i]·W_{first_slot+i}). The values and the first slot
/// travel with the ciphertexts so that a reuse can be checked against the
/// group it is copied into (DataHolder::SendAttrsPacked).
struct PackedCrossTerms {
  size_t first_slot = 0;
  std::vector<crypto::BigInt> xs;
  std::vector<crypto::BigInt> cts;
};

/// The querying party of §V-A: the only holder of the Paillier private key.
/// It publishes the public key, and per compared attribute receives Bob's
/// ciphertext and decides whether the (possibly blinded) distance is within
/// the threshold.
class QueryingParty {
 public:
  QueryingParty(const ProtocolParams& params, uint64_t test_seed);

  /// Generates the key pair and broadcasts the public key on the bus.
  Status PublishKey(MessageBus* bus, SmcCosts* costs);

  /// Installs an externally generated key pair and broadcasts its public
  /// key — the batch engine's workers all publish the SAME key pair so the
  /// expensive generation happens once, not once per worker.
  Status PublishKeyPair(const crypto::PaillierKeyPair& kp, MessageBus* bus,
                        SmcCosts* costs);

  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// Consumes one "bob_ct" message; true when the attribute is within its
  /// threshold. `threshold` is the scaled integer bound on (x-y)^2.
  Result<bool> DecideAttr(MessageBus* bus, const crypto::BigInt& threshold,
                          SmcCosts* costs);

  /// Consumes one "bob_ct" message and range-validates it without
  /// decrypting: the pair's verdict was already settled by an earlier
  /// failing attribute, and consuming the frame keeps the next pair's
  /// frames aligned.
  Status SkipAttr(MessageBus* bus);

  /// Consumes one "bob_ct" message and returns the decrypted signed
  /// plaintext (distance-revealing variant only; test/benchmark hook).
  Result<crypto::BigInt> ReceivePlain(MessageBus* bus, SmcCosts* costs);

  /// Packed variant: consumes one "bob_pk" ciphertext carrying every slot
  /// distance of the packed exchange, decrypts ONCE, unpacks, and compares
  /// slot i against thresholds[i]. A plaintext that fails to unpack (nonzero
  /// residue past the last slot) is reported as an IOError so the retry
  /// layer treats it like any other damaged payload. Distance-revealing
  /// variant only (the packed plaintext is the distances).
  Result<std::vector<bool>> DecideAttrsPacked(
      MessageBus* bus, const std::vector<crypto::BigInt>& thresholds,
      const crypto::PackingLayout& layout, SmcCosts* costs);

  /// Broadcasts the final pair label to both holders (who consume it).
  Status AnnounceResult(MessageBus* bus, bool match);

  /// Packed variant: one "results" message carrying the labels of every
  /// pair in the packed group.
  Status AnnounceResults(MessageBus* bus, const std::vector<uint8_t>& labels);

  /// Attaches the party's Paillier keys to `registry` (paillier.* op
  /// counters). Call after PublishKey — key generation replaces the key
  /// objects and with them the attachment.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Routes the packed path's scratch values through `arena` (nullptr
  /// detaches back to value semantics). The comparator that owns all three
  /// parties shares ONE arena among them and resets it per packed exchange;
  /// the arena must outlive the party's use of it.
  void AttachArena(crypto::BigIntArena* arena) { arena_ = arena; }

 private:
  /// DecryptSigned through the CRT fast path or, when
  /// params_.crt_decrypt is false, the reference path.
  Result<crypto::BigInt> DecryptSignedCt(const crypto::BigInt& c) const;

  /// Unsigned decrypt with the same path selection (packed plaintexts are
  /// non-negative by construction).
  Result<crypto::BigInt> DecryptCt(const crypto::BigInt& c) const;

  ProtocolParams params_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  crypto::PaillierPrivateKey priv_;
  crypto::BigIntArena* arena_ = nullptr;  // not owned; may be null
};

/// A data holder (Alice or Bob). Holds only the public key, its own
/// randomness and its ciphertext cache; its cleartext values are passed in
/// per call by its owner, never stored.
class DataHolder {
 public:
  DataHolder(std::string name, const ProtocolParams& params,
             uint64_t test_seed);

  const std::string& name() const { return name_; }

  /// The received public key (valid after ReceiveKey; zero before). Lets a
  /// daemon build a RandomizerPool around the same key its encryptions use.
  const crypto::PaillierPublicKey& public_key() const { return pub_; }

  /// Consumes the published public key from the bus.
  Status ReceiveKey(MessageBus* bus);

  /// Alice's role for one attribute: ship Enc(x²), Enc(-2x) to `peer`.
  /// cache_key >= 0 reuses ciphertexts for that (record, attribute).
  /// A non-null `reuse` is resent when it was filled for exactly this x;
  /// otherwise the fresh ciphertexts are sent and stored into it.
  Status SendAttr(MessageBus* bus, const std::string& peer,
                  const crypto::BigInt& x, int64_t cache_key, SmcCosts* costs,
                  AttrCiphertexts* reuse = nullptr);

  /// Bob's role: fold its value into Alice's ciphertexts producing
  /// Enc((x-y)²), optionally blind against the threshold, and forward to the
  /// querying party.
  Status FoldAndForward(MessageBus* bus, const crypto::BigInt& y,
                        const crypto::BigInt& threshold, int64_t cache_key,
                        SmcCosts* costs);

  /// Packed Alice: one "alice_pk" message carrying Enc(Σ x_i²·W_i) — every
  /// slot's x² packed into ONE plaintext — plus per-slot Enc(-2·x_i·W_i),
  /// already shifted into slot i so Bob's fold exponent is just y_i. The
  /// caller sizes every slot of `layout` for its values (each x_i², y_i²
  /// and (x_i - y_i)² fits slot i).
  ///
  /// Each slot's cross term is copied from a `reuse` entry that covers it
  /// when that entry's first slot and every one of its values equal this
  /// group's; every other slot is encrypted fresh. So k slots cost between
  /// 1 and k + 1 encryptions, never a ciphertext of a value other than xs.
  /// The packed Enc(Σ x_i²·W_i) is always fresh.
  Status SendAttrsPacked(
      MessageBus* bus, const std::string& peer,
      const std::vector<crypto::BigInt>& xs,
      const crypto::PackingLayout& layout, SmcCosts* costs,
      const std::vector<const PackedCrossTerms*>& reuse = {});

  /// Packed Alice ahead of the exchange: fills terms->cts with
  /// Enc(-2·x·W_slot) for terms->xs at the slots from terms->first_slot, for
  /// later groups to copy through SendAttrsPacked's `reuse`.
  Status EncryptCrossTerms(const crypto::PackingLayout& layout,
                           PackedCrossTerms* terms, SmcCosts* costs);

  /// Packed Bob: folds y_i into the pre-shifted slot-i ciphertext —
  ///   Enc(Σ d_i·W_i) = Enc(Σx_i²W_i) +h Σ_i (Enc(-2x_iW_i) ×h y_i)
  ///                    +h Enc(Σ y_i²W_i),  d_i = (x_i - y_i)²
  /// — and forwards ONE ciphertext to the querying party where the scalar
  /// protocol sends k.
  Status FoldAndForwardPacked(MessageBus* bus,
                              const std::vector<crypto::BigInt>& ys,
                              const crypto::PackingLayout& layout,
                              SmcCosts* costs);

  /// Consumes the querying party's result announcement.
  Result<bool> ReceiveResult(MessageBus* bus);

  /// Packed variant: consumes the group announcement of `count` labels.
  Result<std::vector<uint8_t>> ReceiveResults(MessageBus* bus, size_t count);

  /// Attaches the holder's public-key copy to `registry` (paillier.* op
  /// counters). Call after ReceiveKey — receiving replaces the key object.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Routes this holder's encryptions through a pool of precomputed
  /// randomizers (nullptr detaches). Like AttachMetrics, call after
  /// ReceiveKey; the pool must outlive the holder.
  void AttachRandomizerPool(crypto::RandomizerPool* pool);

  /// See QueryingParty::AttachArena.
  void AttachArena(crypto::BigIntArena* arena) { arena_ = arena; }

 private:
  /// Enc(-2·x·W_slot) on the value path.
  Result<crypto::BigInt> EncryptCrossTerm(const crypto::BigInt& x, size_t slot,
                                          const crypto::PackingLayout& layout);

  std::string name_;
  ProtocolParams params_;
  std::unique_ptr<crypto::SecureRandom> rng_;
  crypto::PaillierPublicKey pub_;
  bool have_key_ = false;
  crypto::BigIntArena* arena_ = nullptr;  // not owned; may be null

  // (record id << 8 | attr) -> ciphertexts; see ProtocolParams.
  std::map<int64_t, std::pair<crypto::BigInt, crypto::BigInt>> send_cache_;
  std::map<int64_t, crypto::BigInt> fold_cache_;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PARTIES_H_
