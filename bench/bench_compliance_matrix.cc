// Table 1: the GDPR article -> database attribute/action map, rendered
// against what each backend configuration actually supports
// (GET-SYSTEM-FEATURES output feeding the compliance matrix).

#include <cstdio>

#include "bench/report.h"
#include "bench_util.h"
#include "gdpr/compliance.h"

int main(int argc, char** argv) {
  using namespace gdpr;
  using namespace gdpr::bench;

  printf("%s", Banner("Table 1: GDPR articles -> database attributes/actions")
                   .c_str());

  // Fully hardened relational configuration.
  {
    RelGdprOptions o;
    o.compliance.metadata_indexing = true;
    o.compliance.encrypt_at_rest = true;
    RelGdprStore store(o);
    store.Open().ok();
    auto f = store.GetFeatures(Actor::Regulator());
    printf("\n[reldb, full compliance config]\n%s\n",
           RenderComplianceMatrix(f.value()).c_str());
  }
  // KV store: no secondary indexes -> metadata indexing unsupported.
  {
    KvGdprOptions o;
    o.compliance.encrypt_at_rest = true;
    KvGdprStore store(o);
    store.Open().ok();
    auto f = store.GetFeatures(Actor::Regulator());
    printf("[memkv, full compliance config]\n%s\n",
           RenderComplianceMatrix(f.value()).c_str());
  }
  // A non-compliant default deployment for contrast.
  {
    KvGdprOptions o;
    o.compliance.enforce_access_control = false;
    o.compliance.audit_enabled = false;
    KvGdprStore store(o);
    store.Open().ok();
    auto f = store.GetFeatures(Actor::Regulator());
    printf("[memkv, out-of-the-box config]\n%s\n",
           RenderComplianceMatrix(f.value()).c_str());
  }
  return 0;
}
