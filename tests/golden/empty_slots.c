void f(int k) {
  if () a(); else if () b();
  x = ;
  switch (k) { case : g(); break; case : h(); }
  z = w && ;
}
