// Property / fuzz battery for the server's utility primitives:
// util::LruCache checked against a brute-force model (a vector ordered
// by recency) and util::TokenBucket checked against exact refill
// arithmetic, both driven by a seeded RNG. The run is seeded from
// VKG_PROPERTY_SEED when set, else randomly — the seed is always logged
// so a failure reproduces with
//   VKG_PROPERTY_SEED=<seed> ./server_util_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/admission.h"
#include "util/failpoint.h"
#include "util/lru_cache.h"
#include "util/token_bucket.h"

namespace vkg::util {
namespace {

uint64_t PropertySeed() {
  uint64_t seed;
  if (const char* env = std::getenv("VKG_PROPERTY_SEED");
      env != nullptr && env[0] != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = std::random_device{}();
  }
  std::printf("[ SEED     ] VKG_PROPERTY_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

// ---------------------------------------------------------------------------
// LruCache unit behavior
// ---------------------------------------------------------------------------

TEST(LruCacheTest, GetPromotesAndPutEvictsColdEnd) {
  LruCache<int, std::string> cache(/*max_entries=*/3, /*max_bytes=*/0);
  cache.Put(1, "a", 1);
  cache.Put(2, "b", 1);
  cache.Put(3, "c", 1);
  ASSERT_EQ(cache.Get(1).value_or(""), "a");  // 1 is now hottest
  cache.Put(4, "d", 1);                       // evicts 2 (cold end)
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, ByteBoundEvictsUntilItFits) {
  LruCache<int, int> cache(/*max_entries=*/0, /*max_bytes=*/100);
  cache.Put(1, 10, 40);
  cache.Put(2, 20, 40);
  cache.Put(3, 30, 40);  // 120 bytes > 100: evicts key 1
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, OversizedEntryIsDroppedNotAdmitted) {
  LruCache<int, int> cache(0, /*max_bytes=*/100);
  cache.Put(1, 10, 40);
  cache.Put(2, 20, 400);  // alone exceeds the bound: dropped
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());  // resident survived
}

TEST(LruCacheTest, UpdateReplacesValueAndCost) {
  LruCache<int, int> cache(0, 100);
  cache.Put(1, 10, 90);
  cache.Put(1, 11, 20);
  EXPECT_EQ(cache.Get(1).value_or(-1), 11);
  EXPECT_EQ(cache.bytes(), 20u);
  EXPECT_EQ(cache.stats().updates, 1u);
}

TEST(LruCacheTest, EraseIfRemovesMatchesWithoutCountingEvictions) {
  LruCache<int, int> cache(10, 0);
  for (int i = 0; i < 6; ++i) cache.Put(i, i, 1);
  size_t removed = cache.EraseIf(
      [](const int& k, const int&) { return k % 2 == 0; });
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// LruCache vs. brute-force model
// ---------------------------------------------------------------------------

// The reference: a recency-ordered vector with the same bounds and
// admission rules, O(n) everything.
class ModelLru {
 public:
  ModelLru(size_t max_entries, size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  std::optional<int> Get(int key) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        Entry e = entries_[i];
        entries_.erase(entries_.begin() + static_cast<long>(i));
        entries_.insert(entries_.begin(), e);
        return e.value;
      }
    }
    return std::nullopt;
  }

  void Put(int key, int value, size_t bytes) {
    if (max_bytes_ > 0 && bytes > max_bytes_) return;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        break;
      }
    }
    entries_.insert(entries_.begin(), Entry{key, value, bytes});
    while (OverCapacity()) entries_.pop_back();
  }

  bool Erase(int key) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        entries_.erase(entries_.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }

  size_t size() const { return entries_.size(); }
  size_t bytes() const {
    size_t total = 0;
    for (const Entry& e : entries_) total += e.bytes;
    return total;
  }
  std::vector<int> KeysByRecency() const {
    std::vector<int> keys;
    for (const Entry& e : entries_) keys.push_back(e.key);
    return keys;
  }

 private:
  struct Entry {
    int key;
    int value;
    size_t bytes;
  };
  bool OverCapacity() const {
    if (entries_.empty()) return false;
    if (max_entries_ > 0 && entries_.size() > max_entries_) return true;
    return max_bytes_ > 0 && bytes() > max_bytes_;
  }

  const size_t max_entries_;
  const size_t max_bytes_;
  std::vector<Entry> entries_;
};

TEST(LruCachePropertyTest, MatchesBruteForceModel) {
  std::mt19937_64 rng(PropertySeed());
  for (int round = 0; round < 20; ++round) {
    // Random bounds each round: entry-only, byte-only, or both.
    const size_t max_entries =
        (round % 3 == 0) ? 0 : 1 + static_cast<size_t>(rng() % 12);
    const size_t max_bytes =
        (round % 3 == 1 && max_entries != 0)
            ? 0
            : 8 + static_cast<size_t>(rng() % 120);
    LruCache<int, int> cache(max_entries, max_bytes);
    ModelLru model(max_entries, max_bytes);

    for (int op = 0; op < 400; ++op) {
      const int key = static_cast<int>(rng() % 16);
      switch (rng() % 4) {
        case 0: {  // Get
          auto got = cache.Get(key);
          auto want = model.Get(key);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "round " << round << " op " << op << " key " << key;
          if (got.has_value()) {
            ASSERT_EQ(*got, *want);
          }
          break;
        }
        case 1: {  // Erase
          ASSERT_EQ(cache.Erase(key), model.Erase(key))
              << "round " << round << " op " << op;
          break;
        }
        default: {  // Put (most frequent)
          const int value = static_cast<int>(rng() % 1000);
          const size_t bytes = 1 + static_cast<size_t>(rng() % 40);
          cache.Put(key, value, bytes);
          model.Put(key, value, bytes);
          break;
        }
      }
      ASSERT_EQ(cache.size(), model.size())
          << "round " << round << " op " << op;
      ASSERT_EQ(cache.bytes(), model.bytes())
          << "round " << round << " op " << op;
      ASSERT_EQ(cache.KeysByRecency(), model.KeysByRecency())
          << "round " << round << " op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// TokenBucket unit behavior
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0);
  // Burst drains...
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(1.0, 100.0).admitted) << i;
  }
  TokenBucket::Decision denied = bucket.TryAcquire(1.0, 100.0);
  EXPECT_FALSE(denied.admitted);
  // ...and one token is 1/rate = 100 ms away.
  EXPECT_NEAR(denied.retry_after_ms, 100.0, 1e-6);
  // After exactly that wait the request is admitted.
  EXPECT_TRUE(bucket.TryAcquire(1.0, 100.1 + 1e-9).admitted);
}

TEST(TokenBucketTest, RefillClampsAtBurst) {
  TokenBucket bucket(10.0, 5.0);
  EXPECT_TRUE(bucket.TryAcquire(5.0, 0.0).admitted);  // empty it
  // An hour later the bucket holds burst, not rate*3600.
  EXPECT_NEAR(bucket.AvailableAt(3600.0), 5.0, 1e-9);
  EXPECT_FALSE(bucket.TryAcquire(6.0, 3600.0).admitted);
}

TEST(TokenBucketTest, OverBurstRequestIsNeverAdmittable) {
  TokenBucket bucket(10.0, 5.0);
  TokenBucket::Decision d = bucket.TryAcquire(6.0, 0.0);
  EXPECT_FALSE(d.admitted);
  EXPECT_LT(d.retry_after_ms, 0.0);  // sentinel: waiting cannot help
}

TEST(TokenBucketTest, NonMonotonicTimeIsTreatedAsNoElapse) {
  TokenBucket bucket(10.0, 2.0);
  EXPECT_TRUE(bucket.TryAcquire(2.0, 50.0).admitted);
  // A clock step backwards must not mint tokens.
  EXPECT_FALSE(bucket.TryAcquire(1.0, 10.0).admitted);
  EXPECT_FALSE(bucket.TryAcquire(1.0, 50.0).admitted);
}

TEST(TokenBucketTest, NonPositiveConfigDisablesLimiting) {
  TokenBucket bucket(0.0, 5.0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(1000.0, 0.0).admitted);
  }
}

// ---------------------------------------------------------------------------
// TokenBucket vs. exact arithmetic model
// ---------------------------------------------------------------------------

TEST(TokenBucketPropertyTest, MatchesExactRefillArithmetic) {
  std::mt19937_64 rng(PropertySeed());
  for (int round = 0; round < 20; ++round) {
    const double rate = 0.5 + static_cast<double>(rng() % 100) / 10.0;
    const double burst = 1.0 + static_cast<double>(rng() % 50) / 5.0;
    TokenBucket bucket(rate, burst);

    // The model: tokens under the same clamp/monotonicity rules.
    double tokens = burst;
    double last = 0.0;
    bool started = false;

    double now = static_cast<double>(rng() % 1000);
    for (int op = 0; op < 300; ++op) {
      // Mostly forward steps; occasionally a backwards step to probe
      // the monotonicity guard.
      if (rng() % 8 == 0) {
        now -= static_cast<double>(rng() % 100) / 100.0;
      } else {
        now += static_cast<double>(rng() % 200) / 100.0;
      }
      const double want = 0.1 + static_cast<double>(rng() % 30) / 10.0;

      if (started && now > last) {
        tokens = std::min(burst, tokens + (now - last) * rate);
      }
      if (!started || now > last) {
        last = now;
        started = true;
      }
      // The model repeats the implementation's arithmetic in the same
      // order, so values are bit-identical and the comparison is exact.
      const bool model_admit = tokens >= want;
      if (model_admit) tokens -= want;

      TokenBucket::Decision d = bucket.TryAcquire(want, now);
      ASSERT_EQ(d.admitted, model_admit)
          << "round " << round << " op " << op << " rate " << rate
          << " burst " << burst << " want " << want << " tokens " << tokens;
      ASSERT_NEAR(bucket.AvailableAt(now), tokens, 1e-6)
          << "round " << round << " op " << op;
      if (!d.admitted && want <= burst) {
        ASSERT_NEAR(d.retry_after_ms, (want - tokens) / rate * 1e3, 1e-3)
            << "round " << round << " op " << op;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AdmissionController with rate limiting disabled (the lock-free path)
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, DisabledAdmitsEveryoneWithoutBuckets) {
  server::AdmissionController admission(/*qps_limit=*/0.0, /*burst=*/0.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&admission, t] {
      const std::string client = "client-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto d = admission.AdmitAt(client, 0.0);
        EXPECT_TRUE(d.admitted);
        EXPECT_EQ(d.retry_after_ms, 0.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(admission.admitted(), uint64_t{kThreads * kPerThread});
  EXPECT_EQ(admission.rejected(), 0u);
  EXPECT_EQ(admission.num_clients(), 0u);  // no bucket is ever created
}

TEST(AdmissionControllerTest, DisabledPathStillHonorsAdmitFailpoint) {
  server::AdmissionController admission(0.0, 0.0);
  ASSERT_TRUE(FailPointRegistry::Instance()
                  .ConfigureSite("server.admit", "2*fail,off")
                  .ok());
  std::vector<bool> admitted;
  for (int i = 0; i < 5; ++i) {
    const auto d = admission.AdmitAt("", 0.0);
    admitted.push_back(d.admitted);
    if (!d.admitted) {
      EXPECT_EQ(d.retry_after_ms, 1.0);
    }
  }
  FailPointRegistry::Instance().Clear();
  EXPECT_EQ(admitted, (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.rejected(), 2u);
  EXPECT_EQ(admission.num_clients(), 0u);
}

}  // namespace
}  // namespace vkg::util
