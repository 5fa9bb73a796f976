// ecgrid-lint-fixture-path: src/traffic/workload/census_ok.cpp
// ecgrid-lint-fixture: expect-clean
// The workload layer's dedicated streams and the fault injector's crash
// stream are census entries, so drawing from them under src/ passes.

struct RngFactory {
  int stream(const char* name, int salt = 0);
};

int workloadStreams(RngFactory& factory) {
  int a = factory.stream("traffic/arrivals");
  int b = factory.stream("traffic/clients");
  int c = factory.stream("traffic/sizes");
  int d = factory.stream("fault/crash", 3);
  return a + b + c + d;
}
