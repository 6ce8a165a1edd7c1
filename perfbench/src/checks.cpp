#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace perfbench {

using icbtc::bitcoin::Amount;
using icbtc::canister::GetUtxosResponse;

std::string check_balance(const std::string& what, Amount expected, Amount got) {
  if (expected == got) return {};
  return what + ": balance " + std::to_string(got) + ", ledger " + std::to_string(expected);
}

std::string check_pages(const std::string& what, const std::vector<ExpectedUtxo>& expected,
                        const std::vector<GetUtxosResponse>& pages, std::size_t page_limit,
                        int considered_height, Amount balance) {
  std::vector<ExpectedUtxo> got;
  for (std::size_t p = 0; p < pages.size(); ++p) {
    const auto& page = pages[p];
    if (page.utxos.size() > page_limit) {
      return what + ": page " + std::to_string(p) + " holds " + std::to_string(page.utxos.size());
    }
    if (page.tip_height != considered_height) {
      return what + ": page " + std::to_string(p) + " considers height " +
             std::to_string(page.tip_height) + ", expected " + std::to_string(considered_height);
    }
    if (p + 1 < pages.size() && !page.next_page) return what + ": page sequence cut short";
    for (const auto& u : page.utxos) got.push_back(ExpectedUtxo{u.outpoint, u.value, u.height});
  }
  if (!pages.empty() && pages.back().next_page) return what + ": last page has a next_page token";
  std::sort(got.begin(), got.end(),
            [](const ExpectedUtxo& a, const ExpectedUtxo& b) { return a.outpoint < b.outpoint; });
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i].outpoint == got[i - 1].outpoint) return what + ": duplicate outpoint";
  }
  if (got.size() != expected.size()) {
    return what + ": " + std::to_string(got.size()) + " UTXOs, ledger " +
           std::to_string(expected.size());
  }
  Amount sum = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].outpoint != expected[i].outpoint) return what + ": outpoint differs from ledger";
    if (got[i].value != expected[i].value || got[i].height != expected[i].height) {
      return what + ": value or height differs from ledger";
    }
    sum += got[i].value;
  }
  if (sum != balance) {
    return what + ": pages sum to " + std::to_string(sum) + ", get_balance " +
           std::to_string(balance);
  }
  return {};
}

std::string check_digest(const icbtc::util::Hash256& writer, const icbtc::util::Hash256& restored) {
  if (writer == restored) return {};
  return "restored utxo_digest " + restored.hex() + " != writer " + writer.hex();
}

std::string check_equal(const std::string& what, std::uint64_t a, std::uint64_t b) {
  if (a == b) return {};
  return what + ": " + std::to_string(a) + " != " + std::to_string(b);
}

std::string check_conservation(Amount funded, Amount wallets, Amount recipients, Amount fees) {
  if (wallets + recipients + fees == funded) return {};
  return "value not conserved: wallets " + std::to_string(wallets) + " + recipients " +
         std::to_string(recipients) + " + fees " + std::to_string(fees) + " != funded " +
         std::to_string(funded);
}

// --------------------------------- Self test ------------------------------

namespace {

struct Case {
  const char* name;
  std::string clean;      // the check on correct values: must be empty
  std::string corrupted;  // the same check on one corrupted value: must not be
};

icbtc::bitcoin::OutPoint outpoint(std::uint8_t tag, std::uint32_t vout) {
  icbtc::bitcoin::OutPoint o;
  o.txid.data[0] = tag;
  o.vout = vout;
  return o;
}

}  // namespace

int self_test() {
  // A three-UTXO address split over two pages of at most two.
  std::vector<ExpectedUtxo> expected = {
      {outpoint(1, 0), 5000, 10}, {outpoint(2, 1), 7000, 11}, {outpoint(3, 0), 9000, 12}};
  Amount balance = 21000;
  auto page = [](std::vector<ExpectedUtxo> utxos, bool more) {
    GetUtxosResponse r;
    for (const auto& u : utxos) r.utxos.push_back({u.outpoint, u.value, u.height});
    r.tip_height = 12;
    if (more) r.next_page = icbtc::util::Bytes(40, 0);
    return r;
  };
  std::vector<GetUtxosResponse> pages = {page({expected[2], expected[0]}, true),
                                         page({expected[1]}, false)};
  std::vector<GetUtxosResponse> dropped_page = {page({expected[2], expected[0]}, false)};
  std::vector<GetUtxosResponse> duplicated = {page({expected[2], expected[0]}, true),
                                              page({expected[0]}, false)};
  std::vector<GetUtxosResponse> oversized = {
      page({expected[2], expected[0], expected[1]}, false)};
  auto off_by_one = pages;
  off_by_one[1].utxos[0].value += 1;

  icbtc::util::Hash256 digest;
  digest.data[7] = 0x5a;
  icbtc::util::Hash256 flipped = digest;
  flipped.data[7] ^= 0x01;

  std::vector<Case> cases = {
      {"balance off by one satoshi", check_balance("b", 21000, 21000),
       check_balance("b", 21000, 21001)},
      {"dropped page", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, dropped_page, 2, 12, balance)},
      {"duplicate UTXO across pages", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, duplicated, 2, 12, balance)},
      {"page over the limit", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, oversized, 2, 12, balance)},
      {"UTXO value off by one satoshi", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, off_by_one, 2, 12, balance)},
      {"pages disagree with get_balance", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, pages, 2, 12, balance + 1)},
      {"wrong considered height", check_pages("p", expected, pages, 2, 12, balance),
       check_pages("p", expected, pages, 2, 11, balance)},
      {"flipped digest byte", check_digest(digest, digest), check_digest(digest, flipped)},
      {"block count off by one", check_equal("blocks", 144, 144), check_equal("blocks", 144, 145)},
      {"fee off by one satoshi", check_conservation(100, 60, 39, 1),
       check_conservation(100, 60, 39, 2)},
  };
  int missed = 0;
  for (const auto& c : cases) {
    bool ok = c.clean.empty() && !c.corrupted.empty();
    std::printf("%-34s %s%s%s\n", c.name, ok ? "fails as it should" : "NOT DETECTED",
                c.corrupted.empty() ? "" : ": ", c.corrupted.c_str());
    if (!ok) ++missed;
  }
  return missed;
}

}  // namespace perfbench
