#include "cli/spec.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace hprl::cli {

namespace {

Result<AttrSpec> ParseAttrLine(const std::vector<std::string>& tok,
                               const std::string& base_dir, int line_no) {
  auto err = [&](const std::string& msg) {
    return Status::InvalidArgument(
        StrFormat("spec line %d: %s", line_no, msg.c_str()));
  };
  if (tok.size() < 3) return err("attr needs a name and a type");
  AttrSpec attr;
  attr.name = tok[1];
  size_t i = 3;
  if (tok[2] == "numeric") {
    attr.type = AttrType::kNumeric;
    if (i < tok.size() && tok[i] == "vghfile") {
      if (i + 1 >= tok.size()) return err("vghfile needs a path");
      std::filesystem::path p(tok[i + 1]);
      attr.vgh_file = p.is_absolute()
                          ? p.string()
                          : (std::filesystem::path(base_dir) / p).string();
      i += 2;
    } else if (i + 3 < tok.size() && tok[i] == "equiwidth") {
      auto lo = ParseDouble(tok[i + 1]);
      auto width = ParseDouble(tok[i + 2]);
      // std::isfinite: ParseDouble accepts "nan"/"inf", and every NaN
      // comparison is false, so a plain range check would wave them through.
      if (!lo.ok() || !width.ok() || !std::isfinite(*lo) ||
          !std::isfinite(*width) || *width <= 0) {
        return err("bad equiwidth bounds");
      }
      attr.lo = *lo;
      attr.leaf_width = *width;
      for (const auto& f : Split(tok[i + 3], ',')) {
        auto v = ParseInt(f);
        if (!v.ok() || *v < 1) return err("bad fanout list");
        attr.fanouts.push_back(static_cast<int>(*v));
      }
      i += 4;
    } else {
      return err(
          "numeric attr needs: equiwidth <lo> <leaf_width> <fanouts> "
          "or vghfile <path>");
    }
  } else if (tok[2] == "categorical") {
    attr.type = AttrType::kCategorical;
    if (i + 1 >= tok.size() || tok[i] != "vghfile") {
      return err("categorical attr needs: vghfile <path>");
    }
    std::filesystem::path p(tok[i + 1]);
    attr.vgh_file =
        p.is_absolute() ? p.string() : (std::filesystem::path(base_dir) / p)
                                           .string();
    i += 2;
  } else if (tok[2] == "text") {
    attr.type = AttrType::kText;
  } else {
    return err("unknown attr type: " + tok[2]);
  }
  if (i + 1 < tok.size() && tok[i] == "theta") {
    auto t = ParseDouble(tok[i + 1]);
    if (!t.ok() || !std::isfinite(*t) || *t < 0) return err("bad theta");
    attr.theta = *t;
    i += 2;
  }
  if (i != tok.size()) return err("trailing tokens on attr line");
  return attr;
}

}  // namespace

Result<LinkageSpec> ParseLinkageSpec(const std::string& text,
                                     const std::string& base_dir) {
  LinkageSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto err = [&](const std::string& msg) {
    return Status::InvalidArgument(
        StrFormat("spec line %d: %s", line_no, msg.c_str()));
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    std::vector<std::string> tok;
    for (auto& t : Split(trimmed, ' ')) {
      if (!t.empty()) tok.push_back(t);
    }
    const std::string& key = tok[0];
    if (key == "attr") {
      auto attr = ParseAttrLine(tok, base_dir, line_no);
      if (!attr.ok()) return attr.status();
      spec.attrs.push_back(std::move(attr).value());
    } else if (key == "class") {
      if (tok.size() != 2) return err("class needs a column name");
      spec.class_attr = tok[1];
    } else if (key == "sensitive") {
      if (tok.size() != 4 || tok[2] != "ldiv") {
        return err("sensitive needs: <column> ldiv <l>");
      }
      auto l = ParseInt(tok[3]);
      if (!l.ok() || *l < 1) return err("bad l");
      spec.sensitive_attr = tok[1];
      spec.l_diversity = *l;
    } else if (key == "k") {
      if (tok.size() != 2) return err("k needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 1) return err("bad k");
      spec.k = *v;
    } else if (key == "allowance") {
      if (tok.size() != 2) return err("allowance needs a value");
      auto v = ParseDouble(tok[1]);
      if (!v.ok() || !std::isfinite(*v) || *v < 0 || *v > 1) {
        return err("allowance must be in [0,1]");
      }
      spec.allowance = *v;
    } else if (key == "heuristic") {
      if (tok.size() != 2) return err("heuristic needs a name");
      auto h = ParseHeuristic(tok[1]);
      if (!h.ok()) return h.status();
      spec.heuristic = *h;
    } else if (key == "anonymizer") {
      if (tok.size() != 2) return err("anonymizer needs a name");
      spec.anonymizer = tok[1];
    } else if (key == "keybits") {
      if (tok.size() != 2) return err("keybits needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad keybits");
      spec.key_bits = static_cast<int>(*v);
    } else if (key == "smc_retries") {
      if (tok.size() != 2) return err("smc_retries needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad smc_retries");
      spec.smc_retries = static_cast<int>(*v);
    } else if (key == "smc_pack") {
      // A third token (the uniform slot width of earlier releases) is
      // accepted and ignored: widths now come from the hierarchies.
      if (tok.size() != 2 && tok.size() != 3) {
        return err("smc_pack needs: <pairs>");
      }
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad smc_pack pairs");
      spec.smc_pack = static_cast<int>(*v);
    } else if (key == "smc_seed") {
      if (tok.size() != 2) return err("smc_seed needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad smc_seed");
      spec.smc_seed = static_cast<uint64_t>(*v);
    } else if (key == "material_dir") {
      if (tok.size() != 2) return err("material_dir needs a path");
      std::filesystem::path p(tok[1]);
      spec.material_dir =
          p.is_absolute() ? p.string()
                          : (std::filesystem::path(base_dir) / p).string();
    } else if (key == "offline_pairs") {
      if (tok.size() != 2) return err("offline_pairs needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad offline_pairs");
      spec.offline_pairs = static_cast<int>(*v);
    } else if (key == "rpc_batch") {
      if (tok.size() != 2) return err("rpc_batch needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 1) return err("bad rpc_batch");
      spec.rpc_batch = static_cast<int>(*v);
    } else if (key == "rpc_window") {
      if (tok.size() != 2) return err("rpc_window needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 1) return err("bad rpc_window");
      spec.rpc_window = static_cast<int>(*v);
    } else if (key == "shards") {
      if (tok.size() != 2) return err("shards needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 1) return err("bad shards");
      spec.shards = static_cast<int>(*v);
    } else if (key == "hb_interval") {
      if (tok.size() != 2) return err("hb_interval needs milliseconds");
      auto v = ParseDouble(tok[1]);
      // std::isfinite, like the fault rates: ParseDouble accepts "nan"/"inf"
      // and NaN slips through any plain comparison chain.
      if (!v.ok() || !std::isfinite(*v) || *v < 1) {
        return err("hb_interval must be a finite positive millisecond count");
      }
      spec.hb_interval_ms = static_cast<int>(*v);
    } else if (key == "suspect_misses" || key == "dead_misses") {
      if (tok.size() != 2) return err(key + " needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 1) return err("bad " + key);
      (key == "suspect_misses" ? spec.suspect_misses : spec.dead_misses) =
          static_cast<int>(*v);
    } else if (key == "fault") {
      if (tok.size() < 3) return err("fault needs: <kind> <value>");
      const std::string& kind = tok[1];
      if (kind == "seed") {
        auto v = ParseInt(tok[2]);
        if (!v.ok() || *v < 0 || tok.size() != 3) return err("bad fault seed");
        spec.fault_seed = static_cast<uint64_t>(*v);
      } else {
        auto rate = ParseDouble(tok[2]);
        if (!rate.ok() || !std::isfinite(*rate) || *rate < 0 || *rate > 1) {
          return err("fault " + kind + " rate must be in [0,1]");
        }
        if (kind == "drop" && tok.size() == 3) {
          spec.fault_drop = *rate;
        } else if (kind == "corrupt" && tok.size() == 3) {
          spec.fault_corrupt = *rate;
        } else if (kind == "crash" && tok.size() == 3) {
          spec.fault_crash = *rate;
        } else if (kind == "delay" && (tok.size() == 3 || tok.size() == 4)) {
          spec.fault_delay = *rate;
          if (tok.size() == 4) {
            auto us = ParseInt(tok[3]);
            if (!us.ok() || *us < 0) return err("bad fault delay microseconds");
            spec.fault_delay_micros = static_cast<int>(*us);
          }
        } else {
          return err("unknown fault directive: " + kind);
        }
      }
    } else if (key == "serve_allowance" || key == "serve_queue") {
      if (tok.size() != 2) return err(key + " needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad " + key);
      (key == "serve_allowance" ? spec.serve_allowance : spec.serve_queue) =
          *v;
    } else if (key == "serve_gen_level") {
      if (tok.size() != 2) return err("serve_gen_level needs a value");
      auto v = ParseInt(tok[1]);
      if (!v.ok() || *v < 0) return err("bad serve_gen_level");
      spec.serve_gen_level = static_cast<int>(*v);
    } else if (key == "threads" || key == "smc_threads") {
      if (tok.size() != 2) return err(key + " needs a value");
      int parsed = 0;
      if (tok[1] == "auto") {
        parsed = 0;  // resolved to hardware_concurrency by the runner
      } else {
        auto v = ParseInt(tok[1]);
        if (!v.ok() || *v < 1) return err("bad " + key);
        parsed = static_cast<int>(*v);
      }
      (key == "threads" ? spec.threads : spec.smc_threads) = parsed;
    } else {
      return err("unknown directive: " + key);
    }
  }
  if (spec.attrs.empty()) {
    return Status::InvalidArgument("spec declares no attributes");
  }
  if (spec.dead_misses <= spec.suspect_misses) {
    return Status::InvalidArgument(
        "spec: dead_misses must exceed suspect_misses");
  }
  return spec;
}

Result<LinkageSpec> LoadLinkageSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open spec: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseLinkageSpec(buf.str(),
                          std::filesystem::path(path).parent_path().string());
}

}  // namespace hprl::cli
