// Every statement form the microgrammar knows, then input cut short.
int walk(struct node *p, int n, std::vector<int> &v) {
    int i = 0;
    do {
        i++;
        p = p->next;
    } while (i < n);
    do i--; while (p == NULL);
    for (;;) {
        if (p->done) break;
    }
    for (i = 0; i < n; i--) use(i);
    for (int x : v) {
        total += x;
    }
    if (p->left == NULL) {
        p->left = make();
    } else if (p->right == NULL) {
        p->right = make();
    } else if (p->left == NULL) {
        log("again");
    } else {
        return -1;
    }
    if (n) x = 1; else if (m) x = 2;
    while (p != NULL) {
        {
            {
                p = p->next;
            }
        }
    }
    switch (p->kind) {
    case 1:
        x = 1;
        break;
    case (2):
        x = 1;
        break;
    default junk:
        p->kind = 0;
    }
    return p->value;
}

int truncated(struct node *q) {
    if (q->ready) {
        while (q
