// auto-generated individual: child
// isa: armv8, loop length: 50
.data
buffer: .skip 512
.text
.global _start
_start:
    init r0, 4660
    init r1, 4677
    init r2, 4694
    init r3, 4711
    init r4, 4728
    init r5, 4745
    init r6, 4762
    init r7, 4779
    init r8, 4796
    init r9, 4813
    init r10, 4830
    init r11, 4847
    init r12, 4864
    init r13, 4881
    init r14, 4898
    init r15, 4915
    init f0, 1.5000
    init f1, 1.7500
    init f2, 2.0000
    init f3, 2.2500
    init f5, 2.7500
    init f6, 3.0000
    init f7, 3.2500
    init f8, 3.5000
    init f10, 4.0000
    init f11, 4.2500
    init f12, 4.5000
    init f13, 4.7500
    init f14, 5.0000
    init f15, 5.2500
    init v0, {0, 1, 2, 3}
    init v1, {1, 2, 3, 4}
    init v2, {2, 3, 4, 5}
    init v3, {3, 4, 5, 6}
    init v4, {4, 5, 6, 7}
    init v5, {5, 6, 7, 8}
    init v6, {6, 7, 8, 9}
    init v7, {7, 8, 9, 10}
    init v8, {8, 9, 10, 11}
    init v9, {9, 10, 11, 12}
    init v10, {10, 11, 12, 13}
    init v12, {12, 13, 14, 15}
    init v13, {13, 14, 15, 16}
    init v14, {14, 15, 16, 17}
    init v15, {15, 16, 17, 18}
virus_loop:
    vfma v6, v8, v0, v12
    eor r5, r5, r10
    vfma v15, v12, v10, v0
    fdiv f11, f1, f14
    str r10, [mem+6]
    vadd v1, v14, v4
    b.next 
    mov r5, r15
    fadd f7, f3, f2
    eor r15, r0, r8
    vfma v1, v3, v0, v7
    vmul v7, v8, v5
    str r9, [mem+47]
    mul r14, r5, r15
    sdiv r10, r2, r8
    vmul v3, v14, v6
    mul r12, r15, r3
    fmul f11, f5, f10
    vmul v8, v4, v2
    madd r7, r3, r5, r13
    fadd f10, f6, f10
    madd r7, r2, r15, r14
    vmul v4, v13, v14
    mul r12, r7, r1
    vfma v3, v5, v8, v8
    fdiv f0, f8, f13
    sub r8, r5, r10
    fmul f0, f10, f13
    fmul f10, f2, f12
    sub r11, r13, r9
    vmul v15, v4, v9
    fadd f1, f14, f15
    orr r8, r6, r1
    fmul f0, f10, f1
    vfma v8, v5, v4, v5
    vmul v9, v13, v10
    eor r7, r1, r15
    add r7, r5, r10
    vmul v1, v4, v8
    vadd v12, v6, v6
    madd r1, r6, r6, r6
    add r3, r7, r10
    sdiv r14, r12, r7
    sub r0, r3, r10
    vadd v6, v4, v1
    orr r10, r8, r2
    vfma v7, v3, v4, v8
    str r13, [mem+49]
    eor r9, r4, r5
    str r0, [mem+22]
    b virus_loop
